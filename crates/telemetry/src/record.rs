//! One wire declaration per persisted record.
//!
//! A [`record!`](crate::record!) declaration lists a record's fields
//! once, in wire order, and derives both its writer and its reader, so
//! the two can never disagree on a key. Every record the workspace
//! keeps on disk is declared this way: the simulator snapshot and its
//! sections, the checkpoint journal line, the run-report statistics
//! and configuration blocks, run-store lines, `BENCH_ccr.json`,
//! fingerprint digest lines, and the analyzer's files (`analysis.json`
//! both ways; the parts of `report.json` and of the `events.jsonl`
//! lines it reads).
//!
//! A record is read in one of two modes:
//!
//! - [`Strict`]: a missing key is a one-line ``{ctx}: missing `k` ``
//!   error, a mistyped one names the type it should have, and a
//!   missing or `null` optional field reads as `None`;
//! - [`Lenient`]: a missing or mistyped field reads as its default (0
//!   for a counter, `""` for a string), so additive fields never break
//!   an old reader.
//!
//! A field can name a codec of its own instead (`field: Codec`): the
//! other mode, [`Flat`] for a nested record whose fields sit inline, or
//! a codec the owning crate writes for an irregular shape. A field can
//! also be written under a key other than its name (`field = "key"`).
//!
//! ```
//! use ccr_telemetry::record::{self, Lenient, Record};
//! use ccr_telemetry::value;
//!
//! #[derive(Debug, Default, PartialEq)]
//! struct Point {
//!     timestamp: u64,
//!     name: String,
//! }
//! ccr_telemetry::record!(Strict Point { timestamp = "ts", name: Lenient });
//!
//! let p = Point { timestamp: 7, name: "a".into() };
//! let line = record::object(|w| { w.key("v").u64_val(1); }, &p);
//! assert_eq!(line, r#"{"v":1,"ts":7,"name":"a"}"#);
//! let back = Point::get_fields(&value::parse(&line).unwrap(), "p:1").unwrap();
//! assert_eq!(back, p);
//! let err = Point::get_fields(&value::parse("{}").unwrap(), "p:1").unwrap_err();
//! assert_eq!(err, "p:1: missing `ts`");
//! ```

use std::collections::BTreeMap;

use crate::json::JsonWriter;
use crate::value::Value;

/// One JSON value shape, both directions. `get` reads a present value
/// (`key` names it in errors, `ctx` locates it); `absent` is what a
/// strict record reads for a missing key, where the type has such a
/// value.
pub trait Wire: Sized {
    /// Writes the value.
    fn put(&self, w: &mut JsonWriter);
    /// Reads a present value.
    ///
    /// # Errors
    ///
    /// A `{ctx}:`-prefixed one-line description of a mistyped value.
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Self, String>;
    /// The value a strict record reads for a missing key (`None` when
    /// a missing key is an error).
    fn absent() -> Option<Self> {
        None
    }
}

/// How one field of a record goes on the wire: the record's read mode
/// ([`Strict`], [`Lenient`]) or a field codec of its own.
pub trait Codec<T> {
    /// Writes field `key` holding `x`: its key and its value (or, for
    /// a flattening codec, the members it stands for).
    fn put(x: &T, key: &str, w: &mut JsonWriter);
    /// Reads field `key` of the record object `v`.
    ///
    /// # Errors
    ///
    /// A `{ctx}:`-prefixed one-line description of the fault.
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String>;
}

/// A JSON object whose fields a [`record!`](crate::record!)
/// declaration lists.
pub trait Record: Sized {
    /// Writes the fields as object members, without the braces.
    fn put_fields(&self, w: &mut JsonWriter);
    /// Reads the fields from the object `v`.
    ///
    /// # Errors
    ///
    /// A `{ctx}:`-prefixed one-line description of the first faulty
    /// field.
    fn get_fields(v: &Value, ctx: &str) -> Result<Self, String>;
}

impl<R: Record> Wire for R {
    fn put(&self, w: &mut JsonWriter) {
        w.obj_begin();
        self.put_fields(w);
        w.obj_end();
    }
    fn get(v: &Value, _key: &str, ctx: &str) -> Result<Self, String> {
        R::get_fields(v, ctx)
    }
}

/// A record as one JSON object: the members `head` writes (a version
/// or `kind` tag), then the record's fields.
pub fn object(head: impl FnOnce(&mut JsonWriter), r: &impl Record) -> String {
    let mut w = JsonWriter::new();
    w.obj_begin();
    head(&mut w);
    r.put_fields(&mut w);
    w.obj_end();
    w.finish()
}

/// A record as one `{"kind":...}` line of a sectioned file.
pub fn kind_line(kind: &str, r: &impl Record) -> String {
    object(
        |w| {
            w.key("kind").str_val(kind);
        },
        r,
    )
}

/// The error for a present value of the wrong type.
pub fn not_a(what: &str, key: &str, ctx: &str) -> String {
    format!("{ctx}: `{key}` is not {what}")
}

impl Wire for u64 {
    fn put(&self, w: &mut JsonWriter) {
        w.u64_val(*self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| not_a("an unsigned integer", key, ctx))
    }
}

/// Narrower unsigned integers: written as `u64`, range-checked on read.
macro_rules! narrow_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut JsonWriter) {
                w.u64_val(*self as u64);
            }
            fn get(v: &Value, key: &str, ctx: &str) -> Result<$t, String> {
                <$t>::try_from(u64::get(v, key, ctx)?)
                    .map_err(|_| format!("{ctx}: `{key}` exceeds {}", stringify!($t)))
            }
        }
    )*};
}
narrow_wire!(u32, u8, usize);

impl Wire for f64 {
    fn put(&self, w: &mut JsonWriter) {
        w.f64_val(*self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| not_a("a number", key, ctx))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut JsonWriter) {
        w.bool_val(*self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| not_a("a boolean", key, ctx))
    }
}

impl Wire for String {
    fn put(&self, w: &mut JsonWriter) {
        w.str_val(self);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| not_a("a string", key, ctx))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut JsonWriter) {
        match self {
            None => {
                w.null_val();
            }
            Some(x) => x.put(w),
        }
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Option<T>, String> {
        match v {
            Value::Null => Ok(None),
            v => T::get(v, key, ctx).map(Some),
        }
    }
    fn absent() -> Option<Option<T>> {
        Some(None)
    }
}

/// A sequence as one JSON array.
fn put_all<T: Wire>(xs: &[T], w: &mut JsonWriter) {
    w.arr_begin();
    xs.iter().for_each(|x| x.put(w));
    w.arr_end();
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut JsonWriter) {
        put_all(self, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<Vec<T>, String> {
        v.as_arr()
            .ok_or_else(|| not_a("an array", key, ctx))?
            .iter()
            .map(|x| T::get(x, key, ctx))
            .collect()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut JsonWriter) {
        put_all(self, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<[T; N], String> {
        let all = Vec::<T>::get(v, key, ctx)?;
        let n = all.len();
        all.try_into()
            .map_err(|_| format!("{ctx}: `{key}` has {n} entries, want {N}"))
    }
}

/// A string-keyed map as one JSON object, in key order.
impl<T: Wire> Wire for BTreeMap<String, T> {
    fn put(&self, w: &mut JsonWriter) {
        w.obj_begin();
        for (k, x) in self {
            w.key(k);
            x.put(w);
        }
        w.obj_end();
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<BTreeMap<String, T>, String> {
        v.as_obj()
            .ok_or_else(|| not_a("an object", key, ctx))?
            .iter()
            .map(|(k, x)| Ok((k.clone(), T::get(x, k, ctx)?)))
            .collect()
    }
}

/// Strict read mode: a missing key is an error, unless the field's
/// type reads absence (`Option` reads `None`).
pub struct Strict;

impl<T: Wire> Codec<T> for Strict {
    fn put(x: &T, key: &str, w: &mut JsonWriter) {
        w.key(key);
        x.put(w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String> {
        match v.get(key) {
            None => T::absent().ok_or_else(|| format!("{ctx}: missing `{key}`")),
            Some(x) => T::get(x, key, ctx),
        }
    }
}

/// Lenient read mode: a missing or mistyped field reads as its
/// default (0 for a counter, `""` for a string).
pub struct Lenient;

impl<T: Wire + Default> Codec<T> for Lenient {
    fn put(x: &T, key: &str, w: &mut JsonWriter) {
        Strict::put(x, key, w);
    }
    fn get(v: &Value, key: &str, ctx: &str) -> Result<T, String> {
        Ok(v.get(key)
            .and_then(|x| T::get(x, key, ctx).ok())
            .unwrap_or_default())
    }
}

/// A nested record whose fields sit inline in the enclosing object
/// (no key of its own), read in the nested record's own mode.
pub struct Flat;

impl<R: Record> Codec<R> for Flat {
    fn put(x: &R, _key: &str, w: &mut JsonWriter) {
        x.put_fields(w);
    }
    fn get(v: &Value, _key: &str, ctx: &str) -> Result<R, String> {
        R::get_fields(v, ctx)
    }
}

/// Declares a record's wire shape once: its fields in wire order, each
/// read in the record's mode (`Strict` or `Lenient`) unless it names a
/// codec of its own (`field: Codec`), and each written under its own
/// name unless it names a key (`field = "key"`). A strict record is
/// built field by field; a lenient one starts from `Default`, so fields
/// kept off the wire read as their default. The codec traits live in
/// [`record`](mod@crate::record).
#[macro_export]
macro_rules! record {
    (@codec $mode:ident) => { $crate::record::$mode };
    (@codec $mode:ident $own:ty) => { $own };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    // One field through its codec: `put` writes it, `get` reads it.
    (@put $w:ident, $mode:ident, $x:expr, $f:ident $(= $key:literal)? $(: $own:ty)?) => {
        <$crate::record!(@codec $mode $($own)?) as $crate::record::Codec<_>>::put(
            $x, $crate::record!(@key $f $($key)?), $w)
    };
    (@get $v:ident, $ctx:ident, $mode:ident, $f:ident $(= $key:literal)? $(: $own:ty)?) => {
        <$crate::record!(@codec $mode $($own)?) as $crate::record::Codec<_>>::get(
            $v, $crate::record!(@key $f $($key)?), $ctx)?
    };
    (@new Strict $v:ident, $ctx:ident, $($f:ident $(= $key:literal)? $(: $own:ty)?),*) => {
        Ok(Self { $($f: $crate::record!(@get $v, $ctx, Strict, $f $(= $key)? $(: $own)?),)* })
    };
    (@new Lenient $v:ident, $ctx:ident, $($f:ident $(= $key:literal)? $(: $own:ty)?),*) => {{
        let mut r = Self::default();
        $(r.$f = $crate::record!(@get $v, $ctx, Lenient, $f $(= $key)? $(: $own)?);)*
        Ok(r)
    }};
    ($mode:ident $ty:ty { $($f:ident $(= $key:literal)? $(: $own:ty)?),* $(,)? }) => {
        impl $crate::record::Record for $ty {
            fn put_fields(&self, w: &mut $crate::JsonWriter) {
                $($crate::record!(@put w, $mode, &self.$f, $f $(= $key)? $(: $own)?);)*
            }
            fn get_fields(
                v: &$crate::value::Value,
                ctx: &str,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                $crate::record!(@new $mode v, ctx, $($f $(= $key)? $(: $own)?),*)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value;

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        a: u64,
        b: Option<u32>,
    }
    crate::record!(Strict Inner { a, b });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        n: usize,
        x: f64,
        s: String,
        flag: bool,
        arr: [u8; 2],
        inner: Inner,
        rows: Vec<Inner>,
    }
    crate::record!(Lenient Outer { n = "count", x, s, flag, arr, inner: Flat, rows });

    fn parse(text: &str) -> Value {
        value::parse(text).unwrap()
    }

    #[test]
    fn records_round_trip_in_wire_order() {
        let o = Outer {
            n: 3,
            x: 1.5,
            s: "q\"".into(),
            flag: true,
            arr: [1, 2],
            inner: Inner { a: 4, b: None },
            rows: vec![Inner { a: 5, b: Some(6) }],
        };
        let text = object(|_| {}, &o);
        assert_eq!(
            text,
            r#"{"count":3,"x":1.5,"s":"q\"","flag":true,"arr":[1,2],"a":4,"b":null,"rows":[{"a":5,"b":6}]}"#
        );
        assert_eq!(Outer::get_fields(&parse(&text), "o").unwrap(), o);
        assert_eq!(
            kind_line("k", &Inner { a: 1, b: Some(2) }),
            r#"{"kind":"k","a":1,"b":2}"#
        );
        let map: BTreeMap<String, u64> = [("b".into(), 2), ("a".into(), 1)].into();
        let mut w = JsonWriter::new();
        map.put(&mut w);
        let text = w.finish();
        assert_eq!(text, r#"{"a":1,"b":2}"#);
        assert_eq!(Wire::get(&parse(&text), "m", "f"), Ok(map));
    }

    #[test]
    fn strict_fields_name_the_fault_and_lenient_ones_default() {
        let strict = |text: &str| Inner::get_fields(&parse(text), "f:2").unwrap_err();
        assert_eq!(strict(r#"{"b":1}"#), "f:2: missing `a`");
        assert_eq!(strict(r#"{"a":-1}"#), "f:2: `a` is not an unsigned integer");
        assert_eq!(strict(r#"{"a":1,"b":4294967296}"#), "f:2: `b` exceeds u32");
        assert_eq!(
            Inner::get_fields(&parse(r#"{"a":1}"#), "f").unwrap(),
            Inner { a: 1, b: None }
        );
        // A lenient record reads a mistyped field as its default, but
        // its strict parts still fail.
        let v = parse(r#"{"count":"x","x":true,"s":1,"arr":[1],"a":2,"rows":[]}"#);
        let o = Outer::get_fields(&v, "f").unwrap();
        assert_eq!((o.n, o.x, o.s.as_str(), o.arr), (0, 0.0, "", [0, 0]));
        assert_eq!(o.inner, Inner { a: 2, b: None });
        let err = Outer::get_fields(&parse("{}"), "f").unwrap_err();
        assert_eq!(err, "f: missing `a`");
        let err = <[u8; 2]>::get(&parse("[1,2,3]"), "arr", "f").unwrap_err();
        assert_eq!(err, "f: `arr` has 3 entries, want 2");
        let map =
            |text: &str| <BTreeMap<String, u64> as Wire>::get(&parse(text), "m", "f").unwrap_err();
        assert_eq!(map("[1]"), "f: `m` is not an object");
        assert_eq!(map(r#"{"a":"x"}"#), "f: `a` is not an unsigned integer");
    }
}
