//! Deserialization half of the data model.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// Error a [`Deserializer`] returns.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;

    /// A sequence or map ended before the visitor had what it needs.
    fn invalid_length(len: usize, expected: &dyn Display) -> Self {
        Self::custom(format_args!("invalid length {len}, expected {expected}"))
    }

    /// An enum input named a variant the type does not have.
    fn unknown_variant(index: u64, count: usize) -> Self {
        Self::custom(format_args!(
            "unknown variant index {index}, expected 0 <= i < {count}"
        ))
    }
}

/// Renders a visitor's `expecting` text.
struct Expecting<'a, V>(&'a V);

impl<'de, V: Visitor<'de>> Display for Expecting<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expecting(f)
    }
}

/// A value that can be read through any [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Reads a value.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A value that borrows nothing from its input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// The stateful form of [`Deserialize`].
pub trait DeserializeSeed<'de>: Sized {
    /// What is produced.
    type Value;
    /// Reads a value.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data format's reading side.
pub trait Deserializer<'de>: Sized {
    /// Returned on failure.
    type Error: Error;

    #[allow(missing_docs)]
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// Whether the format is meant for people to read.
    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_default {
    ($method:ident, $t:ty, $what:literal) => {
        #[allow(missing_docs)]
        fn $method<E: Error>(self, _v: $t) -> Result<Self::Value, E> {
            Err(E::custom(format_args!(
                concat!("invalid type: ", $what, ", expected {}"),
                Expecting(&self)
            )))
        }
    };
}

macro_rules! visit_widen {
    ($method:ident, $t:ty, $into:ident, $wide:ty) => {
        #[allow(missing_docs)]
        fn $method<E: Error>(self, v: $t) -> Result<Self::Value, E> {
            self.$into(<$wide>::from(v))
        }
    };
}

/// Receives whatever the input turns out to hold.
pub trait Visitor<'de>: Sized {
    /// What is produced.
    type Value;

    /// Says what the visitor accepts, for error messages.
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_default!(visit_bool, bool, "boolean");
    visit_widen!(visit_i8, i8, visit_i64, i64);
    visit_widen!(visit_i16, i16, visit_i64, i64);
    visit_widen!(visit_i32, i32, visit_i64, i64);
    visit_default!(visit_i64, i64, "integer");
    visit_widen!(visit_u8, u8, visit_u64, u64);
    visit_widen!(visit_u16, u16, visit_u64, u64);
    visit_widen!(visit_u32, u32, visit_u64, u64);
    visit_default!(visit_u64, u64, "integer");
    visit_widen!(visit_f32, f32, visit_f64, f64);
    visit_default!(visit_f64, f64, "floating point");
    visit_default!(visit_char, char, "character");
    visit_default!(visit_str, &str, "string");
    visit_default!(visit_bytes, &[u8], "byte array");

    #[allow(missing_docs)]
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }
    #[allow(missing_docs)]
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    #[allow(missing_docs)]
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    #[allow(missing_docs)]
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    #[allow(missing_docs)]
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(format_args!(
            "invalid type: Option, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_some<D: Deserializer<'de>>(self, _d: D) -> Result<Self::Value, D::Error> {
        Err(D::Error::custom(format_args!(
            "invalid type: Option, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::custom(format_args!(
            "invalid type: unit, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_newtype_struct<D: Deserializer<'de>>(self, _d: D) -> Result<Self::Value, D::Error> {
        Err(D::Error::custom(format_args!(
            "invalid type: newtype struct, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_seq<A: SeqAccess<'de>>(self, _seq: A) -> Result<Self::Value, A::Error> {
        Err(A::Error::custom(format_args!(
            "invalid type: sequence, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_map<A: MapAccess<'de>>(self, _map: A) -> Result<Self::Value, A::Error> {
        Err(A::Error::custom(format_args!(
            "invalid type: map, expected {}",
            Expecting(&self)
        )))
    }
    #[allow(missing_docs)]
    fn visit_enum<A: EnumAccess<'de>>(self, _data: A) -> Result<Self::Value, A::Error> {
        Err(A::Error::custom(format_args!(
            "invalid type: enum, expected {}",
            Expecting(&self)
        )))
    }
}

/// Hands a visitor the elements of a sequence.
pub trait SeqAccess<'de> {
    /// Returned on failure.
    type Error: Error;

    /// The next element, or `None` at the end.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// The next element, or `None` at the end.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// How many elements remain, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Hands a visitor the entries of a map.
pub trait MapAccess<'de> {
    /// Returned on failure.
    type Error: Error;

    /// The next key, or `None` at the end.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// The value of the key read last.
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    /// The next key, or `None` at the end.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// The value of the key read last.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// How many entries remain, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Hands a visitor the variant tag of an enum.
pub trait EnumAccess<'de>: Sized {
    /// Returned on failure.
    type Error: Error;
    /// Reads the variant's content.
    type Variant: VariantAccess<'de, Error = Self::Error>;

    /// Reads the tag.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    /// Reads the tag.
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Hands a visitor the content of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Returned on failure.
    type Error: Error;

    #[allow(missing_docs)]
    fn unit_variant(self) -> Result<(), Self::Error>;
    #[allow(missing_docs)]
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;
    #[allow(missing_docs)]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }
    #[allow(missing_docs)]
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    #[allow(missing_docs)]
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Turns a plain value into a [`Deserializer`] over it.
pub trait IntoDeserializer<'de, E: Error = value::Error> {
    /// The deserializer built.
    type Deserializer: Deserializer<'de, Error = E>;
    /// Builds it.
    fn into_deserializer(self) -> Self::Deserializer;
}

/// Deserializers over plain values.
pub mod value {
    use super::{Deserializer, IntoDeserializer, Visitor};
    use std::fmt::{self, Display};
    use std::marker::PhantomData;

    /// A message-only error.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Error(String);

    impl Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    impl std::error::Error for Error {}

    impl super::Error for Error {
        fn custom<T: Display>(msg: T) -> Error {
            Error(msg.to_string())
        }
    }

    /// A deserializer holding one `u32` (an enum's variant index).
    #[derive(Debug)]
    pub struct U32Deserializer<E> {
        value: u32,
        marker: PhantomData<E>,
    }

    impl<'de, E: super::Error> IntoDeserializer<'de, E> for u32 {
        type Deserializer = U32Deserializer<E>;
        fn into_deserializer(self) -> U32Deserializer<E> {
            U32Deserializer {
                value: self,
                marker: PhantomData,
            }
        }
    }

    macro_rules! forward {
        ($($method:ident)*) => {$(
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                visitor.visit_u32(self.value)
            }
        )*};
    }

    impl<'de, E: super::Error> Deserializer<'de> for U32Deserializer<E> {
        type Error = E;

        forward! {
            deserialize_any deserialize_bool deserialize_i8 deserialize_i16 deserialize_i32
            deserialize_i64 deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64
            deserialize_f32 deserialize_f64 deserialize_char deserialize_str deserialize_string
            deserialize_bytes deserialize_byte_buf deserialize_option deserialize_unit
            deserialize_seq deserialize_map deserialize_identifier deserialize_ignored_any
        }

        fn deserialize_unit_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
        fn deserialize_tuple<V: Visitor<'de>>(
            self,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
        fn deserialize_tuple_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _len: usize,
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
        fn deserialize_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, E> {
            visitor.visit_u32(self.value)
        }
    }
}

/// An enum's variant index, read the way derived code reads it: through
/// `deserialize_identifier`, accepting any unsigned integer.
#[derive(Debug, Clone, Copy)]
pub struct VariantIndex(pub u64);

impl<'de> Deserialize<'de> for VariantIndex {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<VariantIndex, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = VariantIndex;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("variant index")
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<VariantIndex, E> {
                Ok(VariantIndex(v))
            }
        }
        d.deserialize_identifier(V)
    }
}

macro_rules! number {
    ($($t:ty => $de:ident, $what:literal;)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                struct V;
                impl Visitor<'_> for V {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str($what)
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        <$t>::try_from(v)
                            .map_err(|_| E::custom(format_args!("{v} out of range for {}", $what)))
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        <$t>::try_from(v)
                            .map_err(|_| E::custom(format_args!("{v} out of range for {}", $what)))
                    }
                }
                d.$de(V)
            }
        }
    )*};
}
number! {
    i8 => deserialize_i8, "i8";
    i16 => deserialize_i16, "i16";
    i32 => deserialize_i32, "i32";
    i64 => deserialize_i64, "i64";
    isize => deserialize_i64, "isize";
    u8 => deserialize_u8, "u8";
    u16 => deserialize_u16, "u16";
    u32 => deserialize_u32, "u32";
    u64 => deserialize_u64, "u64";
    usize => deserialize_u64, "usize";
}

macro_rules! float {
    ($($t:ty => $de:ident, $what:literal;)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<$t, D::Error> {
                struct V;
                impl Visitor<'_> for V {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str($what)
                    }
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                }
                d.$de(V)
            }
        }
    )*};
}
float! {
    f32 => deserialize_f32, "f32";
    f64 => deserialize_f64, "f64";
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<bool, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        d.deserialize_bool(V)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<char, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::custom("expected a single character")),
                }
            }
        }
        d.deserialize_char(V)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<String, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        d.deserialize_string(V)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<(), D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        d.deserialize_unit(V)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<PhantomData<T>, D::Error> {
        struct V<T: ?Sized>(PhantomData<T>);
        impl<T: ?Sized> Visitor<'_> for V<T> {
            type Value = PhantomData<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<PhantomData<T>, E> {
                Ok(PhantomData)
            }
        }
        d.deserialize_unit_struct("PhantomData", V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Box<T>, D::Error> {
        T::deserialize(d).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Option<T>, D::Error> {
        struct V<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for V<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        d.deserialize_option(V(PhantomData))
    }
}

/// Caps what a length read from input may reserve before any element has
/// been read.
fn cautious(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(4096)
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Vec<T>, D::Error> {
        struct V<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for V<T> {
            type Value = Vec<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Vec<T>, A::Error> {
                let mut out = Vec::with_capacity(cautious(seq.size_hint()));
                while let Some(item) = seq.next_element()? {
                    out.push(item);
                }
                Ok(out)
            }
        }
        d.deserialize_seq(V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<[T; N], D::Error> {
        struct V<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for V<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut out = Vec::with_capacity(N);
                for i in 0..N {
                    out.push(
                        seq.next_element()?
                            .ok_or_else(|| A::Error::invalid_length(i, &Expecting(&self)))?,
                    );
                }
                out.try_into()
                    .map_err(|_| A::Error::custom("array length mismatch"))
            }
        }
        d.deserialize_tuple(N, V::<T, N>(PhantomData))
    }
}

macro_rules! tuples {
    ($(($len:literal $($t:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<De: Deserializer<'de>>(d: De) -> Result<($($t,)+), De::Error> {
                struct V<$($t),+>(PhantomData<($($t,)+)>);
                impl<'de, $($t: Deserialize<'de>),+> Visitor<'de> for V<$($t),+> {
                    type Value = ($($t,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of length {}", $len)
                    }
                    #[allow(unused_assignments)]
                    fn visit_seq<Acc: SeqAccess<'de>>(
                        self,
                        mut seq: Acc,
                    ) -> Result<($($t,)+), Acc::Error> {
                        let mut read = 0usize;
                        Ok(($({
                            let item: $t = seq.next_element()?.ok_or_else(|| {
                                Acc::Error::invalid_length(read, &Expecting(&self))
                            })?;
                            read += 1;
                            item
                        },)+))
                    }
                }
                d.deserialize_tuple($len, V(PhantomData))
            }
        }
    )*};
}
tuples! {
    (1 A)
    (2 A, B)
    (3 A, B, C)
    (4 A, B, C, D)
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<BTreeMap<K, V>, D::Error> {
        struct Vis<K, V>(PhantomData<(K, V)>);
        impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for Vis<K, V> {
            type Value = BTreeMap<K, V>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<BTreeMap<K, V>, A::Error> {
                let mut out = BTreeMap::new();
                while let Some(key) = map.next_key()? {
                    out.insert(key, map.next_value()?);
                }
                Ok(out)
            }
        }
        d.deserialize_map(Vis(PhantomData))
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
    H: BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<HashMap<K, V, H>, D::Error> {
        struct Vis<K, V, H>(PhantomData<(K, V, H)>);
        impl<'de, K, V, H> Visitor<'de> for Vis<K, V, H>
        where
            K: Deserialize<'de> + Eq + Hash,
            V: Deserialize<'de>,
            H: BuildHasher + Default,
        {
            type Value = HashMap<K, V, H>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(
                self,
                mut map: A,
            ) -> Result<HashMap<K, V, H>, A::Error> {
                let mut out =
                    HashMap::with_capacity_and_hasher(cautious(map.size_hint()), H::default());
                while let Some(key) = map.next_key()? {
                    out.insert(key, map.next_value()?);
                }
                Ok(out)
            }
        }
        d.deserialize_map(Vis(PhantomData))
    }
}
