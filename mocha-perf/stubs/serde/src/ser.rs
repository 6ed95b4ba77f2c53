//! Serialization half of the data model.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::marker::PhantomData;

/// Error a [`Serializer`] returns.
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A value that can be written through any [`Serializer`].
pub trait Serialize {
    /// Writes `self`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format's writing side.
pub trait Serializer: Sized {
    /// Returned on success.
    type Ok;
    /// Returned on failure.
    type Error: Error;
    /// State while writing a sequence.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a tuple.
    type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a tuple struct.
    type SerializeTupleStruct: SerializeTupleStruct<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a tuple variant.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a map.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a struct.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// State while writing a struct variant.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    #[allow(missing_docs)]
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    #[allow(missing_docs)]
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;

    /// Whether the format is meant for people to read.
    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! compound_trait {
    ($(#[$doc:meta])* $name:ident, $method:ident) => {
        $(#[$doc])*
        pub trait $name {
            /// Returned on success.
            type Ok;
            /// Returned on failure.
            type Error: Error;
            /// Writes one element.
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
            /// Finishes the compound value.
            fn end(self) -> Result<Self::Ok, Self::Error>;
        }
    };
}
compound_trait!(
    /// Returned by [`Serializer::serialize_seq`].
    SerializeSeq, serialize_element
);
compound_trait!(
    /// Returned by [`Serializer::serialize_tuple`].
    SerializeTuple, serialize_element
);
compound_trait!(
    /// Returned by [`Serializer::serialize_tuple_struct`].
    SerializeTupleStruct, serialize_field
);
compound_trait!(
    /// Returned by [`Serializer::serialize_tuple_variant`].
    SerializeTupleVariant, serialize_field
);

/// Returned by [`Serializer::serialize_map`].
pub trait SerializeMap {
    /// Returned on success.
    type Ok;
    /// Returned on failure.
    type Error: Error;
    /// Writes one key.
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;
    /// Writes the value of the key written last.
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Writes one entry.
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error> {
        self.serialize_key(key)?;
        self.serialize_value(value)
    }
    /// Finishes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

macro_rules! struct_trait {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        pub trait $name {
            /// Returned on success.
            type Ok;
            /// Returned on failure.
            type Error: Error;
            /// Writes one named field.
            fn serialize_field<T: Serialize + ?Sized>(
                &mut self,
                key: &'static str,
                value: &T,
            ) -> Result<(), Self::Error>;
            /// Finishes the struct.
            fn end(self) -> Result<Self::Ok, Self::Error>;
        }
    };
}
struct_trait!(
    /// Returned by [`Serializer::serialize_struct`].
    SerializeStruct
);
struct_trait!(
    /// Returned by [`Serializer::serialize_struct_variant`].
    SerializeStructVariant
);

macro_rules! primitive {
    ($($t:ty => $method:ident),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.$method(*self)
            }
        }
    )*};
}
primitive!(
    bool => serialize_bool, i8 => serialize_i8, i16 => serialize_i16, i32 => serialize_i32,
    i64 => serialize_i64, u8 => serialize_u8, u16 => serialize_u16, u32 => serialize_u32,
    u64 => serialize_u64, f32 => serialize_f32, f64 => serialize_f64, char => serialize_char
);

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(*self as u64)
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_i64(*self as i64)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit()
    }
}

impl<T: ?Sized> Serialize for PhantomData<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit_struct("PhantomData")
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for &mut T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => s.serialize_some(v),
            None => s.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut seq = s.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut tup = s.serialize_tuple(N)?;
        for item in self {
            tup.serialize_element(item)?;
        }
        tup.end()
    }
}

macro_rules! tuples {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let mut tup = s.serialize_tuple([$($n),+].len())?;
                $(tup.serialize_element(&self.$n)?;)+
                tup.end()
            }
        }
    )*};
}
tuples! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut map = s.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_entry(k, v)?;
        }
        map.end()
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut map = s.serialize_map(Some(self.len()))?;
        for (k, v) in self {
            map.serialize_entry(k, v)?;
        }
        map.end()
    }
}
