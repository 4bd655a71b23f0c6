//! One declaration per serving counter set.
//!
//! [`counters!`] declares a set's public `Copy` snapshot struct (docs,
//! field docs, field types) and names its live mirror: one `AtomicU64` per
//! `u64` field, an array of them per `[u64; N]` histogram, each bumped in
//! place under its field's name. The mirror's `snapshot()` loads it
//! (`Relaxed`), and the [`Counters`] visitor walks a snapshot's fields in
//! declaration order, which the stats wire codec uses. A field that is not
//! a counter keeps a mirror slot that stays zero, and its accessor fills
//! it by struct update, as in `NetStats { faults_injected,
//! ..cells.snapshot() }`.

/// A snapshot struct declared with [`counters!`]: a visitor over its
/// fields in declaration order, which is also their wire order.
pub(crate) trait Counters {
    /// Each field's name and words (one per `u64`, `N` per `[u64; N]`).
    fn fields(&self) -> impl Iterator<Item = (&'static str, &[u64])>;
    /// Each field's name and words, for writing.
    fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut [u64])>;
}

/// Declare a counter set once (module docs above): the snapshot struct
/// as it reads in the public API, then its mirror's name.
macro_rules! counters {
    // A field's mirror type, `Relaxed` load and words, by the field's type.
    (@cell u64) => { std::sync::atomic::AtomicU64 };
    (@cell [u64; $n:literal]) => { [std::sync::atomic::AtomicU64; $n] };
    (@load $cell:expr, u64) => { $cell.load(std::sync::atomic::Ordering::Relaxed) };
    (@load $cell:expr, [u64; $n:literal]) => {
        std::array::from_fn(|i| $cell[i].load(std::sync::atomic::Ordering::Relaxed))
    };
    (@words $v:expr, u64) => { std::slice::from_ref($v) };
    (@words $v:expr, [u64; $n:literal]) => { $v.as_slice() };
    (@words_mut $v:expr, u64) => { std::slice::from_mut($v) };
    (@words_mut $v:expr, [u64; $n:literal]) => { $v.as_mut_slice() };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:tt, )*
        }
        $(#[$cmeta:meta])*
        pub(crate) struct $cells:ident;
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        $(#[$cmeta])*
        #[derive(Default)]
        pub(crate) struct $cells {
            $( $(#[$fmeta])* pub(crate) $field: $crate::metrics::counters!(@cell $ty), )*
        }

        $(#[$cmeta])*
        impl $cells {
            /// Every field's value now, each a `Relaxed` load.
            pub(crate) fn snapshot(&self) -> $name {
                $name { $( $field: $crate::metrics::counters!(@load self.$field, $ty), )* }
            }
        }

        impl $crate::metrics::Counters for $name {
            fn fields(&self) -> impl Iterator<Item = (&'static str, &[u64])> {
                [$( (stringify!($field), $crate::metrics::counters!(@words &self.$field, $ty)), )*]
                    .into_iter()
            }
            fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut [u64])> {
                [$((
                    stringify!($field),
                    $crate::metrics::counters!(@words_mut &mut self.$field, $ty),
                ),)*]
                .into_iter()
            }
        }
    };
}
pub(crate) use counters;

#[cfg(test)]
mod tests {
    use super::Counters;
    use crate::{NetStats, ServeStats};

    #[test]
    fn serve_stats_visit_in_declaration_order() {
        let names: Vec<_> = ServeStats::default().fields().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "slices",
                "emulations",
                "catalog_queries",
                "errors",
                "batches",
                "chunk_touches",
                "chunk_fetches",
                "chunk_decodes",
                "products",
                "product_computes",
                "busy_nanos",
                "deadline_expired",
            ]
        );
    }

    #[test]
    fn net_stats_histogram_buckets_visit_after_the_scalars() {
        // Word `k` (in visitor order) set to `k`.
        let mut stats = NetStats::default();
        let words = stats.fields_mut().flat_map(|(_, w)| w.iter_mut());
        for (k, w) in words.enumerate() {
            *w = k as u64;
        }
        assert_eq!(stats.fields().map(|(_, w)| w.len()).sum::<usize>(), 25);
        // The histogram sits after the 15 scalars before it.
        assert_eq!(
            stats.frames_per_response,
            std::array::from_fn(|i| 15 + i as u64)
        );
        assert_eq!(stats.shed, 23);
    }
}
