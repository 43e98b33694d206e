//! Seeded generator for keys, mix order, burst placement and crash
//! points: the same seed gives the same statement stream.

/// SplitMix64: small, fast, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one run; `stream` separates the
    /// streams of different threads or phases drawn from the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Deals a fixed operation mix in seeded order: every `len` deals hold
/// each kind exactly as often as the mix says, so runs with different
/// seeds differ in order and keys, not in how much of each operation they
/// do.
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// `mix` lists each kind with its count per round.
    pub fn new(mix: &[(T, usize)]) -> Self {
        let cards = mix
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        Deck { cards, next: 0 }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            for i in (1..self.cards.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                self.cards.swap(i, j);
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}
