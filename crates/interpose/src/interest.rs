//! Syscall-interest sets: which syscall numbers a handler wants to see.
//!
//! The dominant cost of "dummy" interposition (paper §V, Table 2) is
//! not the handler body but getting *to* it: building a
//! [`SyscallEvent`](crate::SyscallEvent), the indirect call through the
//! handler vtable, and the post hook. Most real interposers care about
//! a handful of syscall numbers, so the mechanisms consult the
//! installed handler's [`InterestSet`] — one 64-bit load plus a bit
//! test — before paying any of that, and fall straight through to the
//! raw syscall for numbers the handler declared no interest in.
//!
//! The set covers numbers `0..512` (`syscalls::MAX_SYSCALL_NR`, the
//! same bound the zpoline trampoline's sled covers). Numbers at or
//! above the bound are conservatively reported as interesting, so a
//! handler can never silently miss an out-of-table syscall.

use syscalls::MAX_SYSCALL_NR;

const WORDS: usize = (MAX_SYSCALL_NR as usize) / 64;

/// A 512-bit bitmap of syscall numbers a handler wants delivered.
///
/// Mechanisms test membership on the hot path; construction happens
/// once at registration time, so the builder methods favour clarity
/// over speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterestSet {
    bits: [u64; WORDS],
}

impl InterestSet {
    /// The set containing every syscall number. This is the default
    /// ([`SyscallHandler::interest`](crate::SyscallHandler::interest))
    /// so existing handlers keep seeing everything.
    pub const fn all() -> InterestSet {
        InterestSet {
            bits: [u64::MAX; WORDS],
        }
    }

    /// The empty set: the handler is never consulted on the fast path.
    pub const fn none() -> InterestSet {
        InterestSet { bits: [0; WORDS] }
    }

    /// Builds a set from an explicit list of syscall numbers.
    /// Numbers at or above [`MAX_SYSCALL_NR`] are ignored (they are
    /// implicitly interesting — see [`InterestSet::contains`]).
    pub fn of(nrs: &[u64]) -> InterestSet {
        let mut s = InterestSet::none();
        for &nr in nrs {
            s.insert(nr);
        }
        s
    }

    /// Adds `nr` to the set. No-op for out-of-range numbers.
    pub fn insert(&mut self, nr: u64) {
        if nr < MAX_SYSCALL_NR {
            self.bits[(nr / 64) as usize] |= 1u64 << (nr % 64);
        }
    }

    /// Removes `nr` from the set. No-op for out-of-range numbers
    /// (those stay implicitly interesting regardless).
    pub fn remove(&mut self, nr: u64) {
        if nr < MAX_SYSCALL_NR {
            self.bits[(nr / 64) as usize] &= !(1u64 << (nr % 64));
        }
    }

    /// Tests membership. Out-of-range numbers always report `true`:
    /// the table only filters what it can represent, and delivering an
    /// extra syscall is safe while dropping one is not.
    #[inline]
    pub fn contains(&self, nr: u64) -> bool {
        if nr >= MAX_SYSCALL_NR {
            return true;
        }
        self.bits[(nr / 64) as usize] & (1u64 << (nr % 64)) != 0
    }

    /// The union of two sets (used by
    /// [`ChainHandler`](crate::ChainHandler) to combine children).
    pub fn union(&self, other: &InterestSet) -> InterestSet {
        let mut bits = [0u64; WORDS];
        for (i, b) in bits.iter_mut().enumerate() {
            *b = self.bits[i] | other.bits[i];
        }
        InterestSet { bits }
    }

    /// `true` if no in-range number is a member.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// `true` if every in-range number is a member.
    pub fn is_all(&self) -> bool {
        self.bits.iter().all(|&w| w == u64::MAX)
    }

    /// Number of in-range members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw 64-bit words, low numbers first. Mechanisms cache these
    /// next to their handler pointer for a branch-free membership test.
    pub fn words(&self) -> [u64; WORDS] {
        self.bits
    }

    /// Rebuilds a set from [`InterestSet::words`] output.
    pub const fn from_words(bits: [u64; WORDS]) -> InterestSet {
        InterestSet { bits }
    }
}

impl Default for InterestSet {
    /// Defaults to all-interesting, matching the trait default.
    fn default() -> InterestSet {
        InterestSet::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let all = InterestSet::all();
        let none = InterestSet::none();
        assert!(all.is_all() && !all.is_empty());
        assert!(none.is_empty() && !none.is_all());
        assert_eq!(all.len(), 512);
        assert_eq!(none.len(), 0);
        for nr in 0..MAX_SYSCALL_NR {
            assert!(all.contains(nr));
            assert!(!none.contains(nr));
        }
    }

    #[test]
    fn set_and_contains_edges() {
        // Word-boundary edges: 0, 63/64, 511.
        let mut s = InterestSet::of(&[0, 63, 64, 511]);
        assert!(s.contains(0));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(s.contains(511));
        assert!(!s.contains(1));
        assert!(!s.contains(62));
        assert!(!s.contains(65));
        assert!(!s.contains(510));
        assert_eq!(s.len(), 4);
        s.remove(63);
        s.remove(64);
        assert!(!s.contains(63) && !s.contains(64));
        assert!(s.contains(0) && s.contains(511));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_range_is_conservatively_interesting() {
        let none = InterestSet::none();
        assert!(none.contains(MAX_SYSCALL_NR));
        assert!(none.contains(u64::MAX));
        // ...and inserting out-of-range numbers is a no-op.
        let mut s = InterestSet::none();
        s.insert(MAX_SYSCALL_NR);
        s.insert(u64::MAX);
        assert!(s.is_empty());
    }

    #[test]
    fn union_combines() {
        let a = InterestSet::of(&[1, 100]);
        let b = InterestSet::of(&[100, 511]);
        let u = a.union(&b);
        assert_eq!(u, InterestSet::of(&[1, 100, 511]));
        assert_eq!(u.len(), 3);
        assert!(a.union(&InterestSet::all()).is_all());
        assert_eq!(a.union(&InterestSet::none()), a);
    }

    #[test]
    fn words_round_trip() {
        let s = InterestSet::of(&[0, 64, 128, 192, 256, 320, 384, 448, 511]);
        let w = s.words();
        assert_eq!(InterestSet::from_words(w), s);
        assert_eq!(w[0] & 1, 1);
        assert_eq!(w[7] >> 63, 1);
    }
}
