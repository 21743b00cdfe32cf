//! Strongly-typed identifiers.
//!
//! The paper's storage layout (§2.1.3) fixes the widths: URLs are keyed by a
//! 64-bit hashed `oid`, terms by 32-bit hash codes (`tid`), and topic classes
//! by 16-bit ids (`cid`/`kcid`/`pcid`). Servers (`sid`) stand for the IP
//! address that served a page and are used by the distiller's nepotism
//! filter (`sid_src <> sid_dst`).

use crate::hash::{fx64, FX32_SEED};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw integer value.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// 64-bit hashed key for a URL (`oid` in the paper's `CRAWL`, `LINK`,
    /// `HUBS` and `AUTH` tables).
    Oid,
    u64
);
id_type!(
    /// Server identifier (`sid`): the host that served a page. The paper
    /// uses the IP address; the simulator assigns one per synthetic host.
    ServerId,
    u32
);
id_type!(
    /// 32-bit term hash code (`tid`). The paper hashes terms to 32 bits
    /// rather than keeping a string dictionary.
    TermId,
    u32
);
id_type!(
    /// 16-bit topic/class id (`cid`; `pcid`/`kcid` for parent/kid roles).
    ClassId,
    u16
);
id_type!(
    /// Document id (`did`). Distinct from [`Oid`] so that training documents
    /// that never correspond to a crawled URL have their own key space.
    DocId,
    u64
);

impl Oid {
    /// Hash a URL string into its 64-bit `oid`, as the paper's crawler does
    /// before storing rows in `CRAWL`/`LINK`.
    pub fn of_url(url: &str) -> Oid {
        Oid(fx64(url.as_bytes()))
    }
}

impl TermId {
    /// Hash a token into its 32-bit `tid` (paper §2.1.3: "we use 32-bit
    /// hash codes for terms").
    pub fn of_token(token: &str) -> TermId {
        TermId((fx64(token.as_bytes()) ^ FX32_SEED as u64) as u32)
    }
}

impl ClassId {
    /// The root of every taxonomy. `Pr[root] = 1` by definition.
    pub const ROOT: ClassId = ClassId(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_hash_is_stable_and_distinguishes() {
        let a = Oid::of_url("http://bike.example.org/links.htm");
        let b = Oid::of_url("http://bike.example.org/links.htm");
        let c = Oid::of_url("http://bike.example.org/other.htm");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn term_hash_fits_32_bits_and_is_stable() {
        let t1 = TermId::of_token("bicycling");
        let t2 = TermId::of_token("bicycling");
        assert_eq!(t1, t2);
        assert_ne!(TermId::of_token("velodrome"), t1);
    }

    #[test]
    fn display_and_raw_round_trip() {
        let c = ClassId(42);
        assert_eq!(c.raw(), 42);
        assert_eq!(format!("{c}"), "ClassId(42)");
        assert_eq!(ClassId::from(42u16), c);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Oid(3) < Oid(10));
        assert!(ClassId(1) < ClassId(2));
    }

    #[test]
    fn root_class_is_zero() {
        assert_eq!(ClassId::ROOT.raw(), 0);
    }
}
