//! `#[derive(Serialize, Deserialize)]` for the std-only `serde` stand-in,
//! written against `proc_macro` alone (no `syn`/`quote` in the sandbox).
//!
//! Handles non-generic structs (unit, newtype, tuple, named) and enums
//! whose variants are any of those shapes. `#[serde(...)]` attributes and
//! generic parameters are rejected with a compile error instead of being
//! silently ignored. Derived `Deserialize` reads a struct as a sequence of
//! its fields and an enum variant by index, which is what a
//! non-self-describing format such as `mocha_wire::serbin` presents.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The fields of a struct or of one enum variant.
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

enum Item {
    Struct(String, Shape),
    Enum(String, Vec<(String, Shape)>),
}

/// Splits `tokens` on commas that are outside every `<...>` (groups are
/// single token trees already, so only angle brackets need counting).
fn split_top_level(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_dash = false;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                // `->` in a fn-pointer type is not a closing bracket.
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        parts.last_mut().expect("parts starts non-empty").push(tt);
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

/// Drops leading `#[...]` attributes and a `pub` / `pub(...)` visibility.
fn strip_attrs_and_vis(tokens: &[TokenTree]) -> Result<&[TokenTree], String> {
    let mut rest = tokens;
    loop {
        match rest {
            [TokenTree::Punct(p), TokenTree::Group(g), tail @ ..] if p.as_char() == '#' => {
                if g.stream().to_string().trim_start().starts_with("serde") {
                    return Err(
                        "#[serde(...)] attributes are not supported by this stand-in".into(),
                    );
                }
                rest = tail;
            }
            [TokenTree::Ident(i), TokenTree::Group(g), tail @ ..]
                if i.to_string() == "pub" && g.delimiter() == Delimiter::Parenthesis =>
            {
                rest = tail;
            }
            [TokenTree::Ident(i), tail @ ..] if i.to_string() == "pub" => rest = tail,
            _ => return Ok(rest),
        }
    }
}

fn named_fields(group: TokenStream) -> Result<Shape, String> {
    let mut names = Vec::new();
    for field in split_top_level(group.into_iter().collect()) {
        match strip_attrs_and_vis(&field)? {
            [TokenTree::Ident(name), TokenTree::Punct(colon), ..] if colon.as_char() == ':' => {
                names.push(name.to_string());
            }
            _ => return Err("expected `name: Type` in struct body".into()),
        }
    }
    Ok(Shape::Named(names))
}

fn tuple_fields(group: TokenStream) -> Result<Shape, String> {
    let fields = split_top_level(group.into_iter().collect());
    for field in &fields {
        strip_attrs_and_vis(field)?;
    }
    Ok(Shape::Tuple(fields.len()))
}

fn shape_of(tokens: &[TokenTree]) -> Result<Shape, String> {
    match tokens.first() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => named_fields(g.stream()),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            tuple_fields(g.stream())
        }
        _ => Ok(Shape::Unit),
    }
}

fn parse(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let rest = strip_attrs_and_vis(&tokens)?;
    let (kind, name, body) = match rest {
        [TokenTree::Ident(kind), TokenTree::Ident(name), body @ ..] => {
            (kind.to_string(), name.to_string(), body)
        }
        _ => return Err("expected `struct Name` or `enum Name`".into()),
    };
    if matches!(body.first(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err("generic types are not supported by this stand-in".into());
    }
    match kind.as_str() {
        "struct" => Ok(Item::Struct(name, shape_of(body)?)),
        "enum" => {
            let Some(TokenTree::Group(g)) = body.first() else {
                return Err("expected enum body".into());
            };
            let mut variants = Vec::new();
            for variant in split_top_level(g.stream().into_iter().collect()) {
                match strip_attrs_and_vis(&variant)? {
                    [TokenTree::Ident(vname), tail @ ..] => {
                        if matches!(tail.first(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                            variants.push((vname.to_string(), Shape::Unit));
                        } else {
                            variants.push((vname.to_string(), shape_of(tail)?));
                        }
                    }
                    _ => return Err("expected a variant name".into()),
                }
            }
            Ok(Item::Enum(name, variants))
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

fn emit(result: Result<String, String>) -> TokenStream {
    let code = match result {
        Ok(code) => code,
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse().expect("generated code must tokenize")
}

fn quoted_list(names: &[String]) -> String {
    names.iter().map(|n| format!("{n:?}, ")).collect()
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    emit(parse(input).map(|item| match item {
        Item::Struct(name, shape) => {
            let body = match shape {
                Shape::Unit => format!("__s.serialize_unit_struct({name:?})"),
                Shape::Tuple(1) => format!("__s.serialize_newtype_struct({name:?}, &self.0)"),
                Shape::Tuple(n) => {
                    let fields: String = (0..n)
                        .map(|i| format!("__st.serialize_field(&self.{i})?;"))
                        .collect();
                    format!(
                        "use ::serde::ser::SerializeTupleStruct as _;\
                         let mut __st = __s.serialize_tuple_struct({name:?}, {n})?;\
                         {fields} __st.end()"
                    )
                }
                Shape::Named(names) => {
                    let fields: String = names
                        .iter()
                        .map(|f| format!("__st.serialize_field({f:?}, &self.{f})?;"))
                        .collect();
                    format!(
                        "use ::serde::ser::SerializeStruct as _;\
                         let mut __st = __s.serialize_struct({name:?}, {})?;\
                         {fields} __st.end()",
                        names.len()
                    )
                }
            };
            ser_impl(&name, &body)
        }
        Item::Enum(name, variants) => {
            let arms: String = variants
                .iter()
                .enumerate()
                .map(|(idx, (v, shape))| match shape {
                    Shape::Unit => format!(
                        "{name}::{v} => __s.serialize_unit_variant({name:?}, {idx}u32, {v:?}),"
                    ),
                    Shape::Tuple(1) => format!(
                        "{name}::{v}(__f0) => \
                         __s.serialize_newtype_variant({name:?}, {idx}u32, {v:?}, __f0),"
                    ),
                    Shape::Tuple(n) => {
                        let binds: String = (0..*n).map(|i| format!("__f{i}, ")).collect();
                        let fields: String = (0..*n)
                            .map(|i| format!("__st.serialize_field(__f{i})?;"))
                            .collect();
                        format!(
                            "{name}::{v}({binds}) => {{\
                             use ::serde::ser::SerializeTupleVariant as _;\
                             let mut __st = \
                             __s.serialize_tuple_variant({name:?}, {idx}u32, {v:?}, {n})?;\
                             {fields} __st.end() }}"
                        )
                    }
                    Shape::Named(names) => {
                        let binds: String = names.iter().map(|f| format!("{f}, ")).collect();
                        let fields: String = names
                            .iter()
                            .map(|f| format!("__st.serialize_field({f:?}, {f})?;"))
                            .collect();
                        format!(
                            "{name}::{v} {{ {binds} }} => {{\
                             use ::serde::ser::SerializeStructVariant as _;\
                             let mut __st = \
                             __s.serialize_struct_variant({name:?}, {idx}u32, {v:?}, {})?;\
                             {fields} __st.end() }}",
                            names.len()
                        )
                    }
                })
                .collect();
            ser_impl(&name, &format!("match self {{ {arms} }}"))
        }
    }))
}

fn ser_impl(name: &str, body: &str) -> String {
    format!(
        "impl ::serde::Serialize for {name} {{\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{ {body} }} }}"
    )
}

/// `field: next()?,` / `next()?,` for each field of a shape, reading from
/// the `SeqAccess` bound to `__seq`.
fn seq_reads(shape: &Shape, what: &str) -> String {
    let read = |i: usize| {
        format!(
            "match __seq.next_element()? {{ Some(v) => v, None => return Err(\
             <__A::Error as ::serde::de::Error>::invalid_length({i}, &{what:?})) }}"
        )
    };
    match shape {
        Shape::Unit => String::new(),
        Shape::Tuple(n) => {
            let items: String = (0..*n).map(|i| format!("{}, ", read(i))).collect();
            format!("({items})")
        }
        Shape::Named(names) => {
            let items: String = names
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{f}: {}, ", read(i)))
                .collect();
            format!("{{ {items} }}")
        }
    }
}

/// A visitor type `__V` building `path` (a struct or a variant) from a
/// sequence, plus `visit_newtype_struct`/`visit_unit` where they apply.
fn visitor(ty: &str, path: &str, shape: &Shape, what: &str) -> String {
    let extra = match shape {
        Shape::Unit => format!(
            "fn visit_unit<__E: ::serde::de::Error>(self) \
             -> ::core::result::Result<{ty}, __E> {{ Ok({path}) }}"
        ),
        Shape::Tuple(1) => format!(
            "fn visit_newtype_struct<__D: ::serde::Deserializer<'de>>(self, __d: __D) \
             -> ::core::result::Result<{ty}, __D::Error> {{ \
             Ok({path}(::serde::Deserialize::deserialize(__d)?)) }}"
        ),
        _ => String::new(),
    };
    format!(
        "struct __V; impl<'de> ::serde::de::Visitor<'de> for __V {{\
         type Value = {ty};\
         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\
         __f.write_str({what:?}) }}\
         {extra}\
         #[allow(unused_mut)]\
         fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
         -> ::core::result::Result<{ty}, __A::Error> {{ Ok({path} {}) }} }}",
        seq_reads(shape, what)
    )
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    emit(parse(input).map(|item| match item {
        Item::Struct(name, shape) => {
            let what = format!("struct {name}");
            let call = match &shape {
                Shape::Unit => format!("__d.deserialize_unit_struct({name:?}, __V)"),
                Shape::Tuple(1) => format!("__d.deserialize_newtype_struct({name:?}, __V)"),
                Shape::Tuple(n) => format!("__d.deserialize_tuple_struct({name:?}, {n}, __V)"),
                Shape::Named(names) => format!(
                    "__d.deserialize_struct({name:?}, &[{}], __V)",
                    quoted_list(names)
                ),
            };
            de_impl(
                &name,
                &format!("{} {call}", visitor(&name, &name, &shape, &what)),
            )
        }
        Item::Enum(name, variants) => {
            let arms: String = variants
                .iter()
                .enumerate()
                .map(|(idx, (v, shape))| {
                    let path = format!("{name}::{v}");
                    let what = format!("variant {name}::{v}");
                    let body = match shape {
                        Shape::Unit => format!(
                            "::serde::de::VariantAccess::unit_variant(__variant)?; Ok({path})"
                        ),
                        Shape::Tuple(1) => format!(
                            "Ok({path}(::serde::de::VariantAccess::newtype_variant(__variant)?))"
                        ),
                        Shape::Tuple(n) => format!(
                            "{} ::serde::de::VariantAccess::tuple_variant(__variant, {n}, __V)",
                            visitor(&name, &path, shape, &what)
                        ),
                        Shape::Named(names) => format!(
                            "{} ::serde::de::VariantAccess::struct_variant(__variant, &[{}], __V)",
                            visitor(&name, &path, shape, &what),
                            quoted_list(names)
                        ),
                    };
                    format!("{idx}u64 => {{ {body} }}")
                })
                .collect();
            let names: Vec<String> = variants.iter().map(|(v, _)| v.clone()).collect();
            let count = variants.len();
            de_impl(
                &name,
                &format!(
                    "struct __E; impl<'de> ::serde::de::Visitor<'de> for __E {{\
                     type Value = {name};\
                     fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) \
                     -> ::core::fmt::Result {{ __f.write_str(\"enum {name}\") }}\
                     fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
                     -> ::core::result::Result<{name}, __A::Error> {{\
                     let (__idx, __variant): (::serde::de::VariantIndex, _) = \
                     ::serde::de::EnumAccess::variant(__data)?;\
                     match __idx.0 {{ {arms} __other => Err(\
                     <__A::Error as ::serde::de::Error>::unknown_variant(__other, {count})) }} }} }}\
                     __d.deserialize_enum({name:?}, &[{}], __E)",
                    quoted_list(&names)
                ),
            )
        }
    }))
}

fn de_impl(name: &str, body: &str) -> String {
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
         -> ::core::result::Result<Self, __D::Error> {{ {body} }} }}"
    )
}
