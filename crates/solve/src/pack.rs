//! Compact bit-packed state encoding.
//!
//! The exploration engine stores every tangible state as a short run of
//! `u64` words instead of an `Arc<[u32]>` token vector: each field of
//! the extended state vector (place token counts, then one phase
//! counter per expanded activity) occupies a fixed bit slice of the
//! packed words. On the consensus models this cuts per-state memory
//! roughly 4–8× (a ~40-field state packs into 3 words — 24 bytes —
//! where the old representation paid 160 bytes of `u32`s plus the `Arc`
//! header and pointer), which is what lets `n = 3` phase-type spaces
//! (multi-million states) fit comfortably in RAM. Packed words are also
//! what the concurrent intern table hashes and compares, so the hot
//! lookup path touches 3 words instead of 40 — and, in the
//! external-memory exploration ([`crate::ddd`]), the packed words *are*
//! the sort keys: frontiers are sorted and sort-merged against the
//! on-disk visited runs as fixed-width word tuples, so the canonical
//! `(BFS level, packed key)` order is identical whether dedup happens
//! in the intern table or on disk.
//!
//! # Field widths
//!
//! Phase-counter fields have a statically known range (`0..=P` for a
//! plan with `P` phases) and get exactly the bits they need. Place
//! fields have no a-priori bound — a SAN place can in principle
//! accumulate any token count — so the layout starts every place at
//! [`PLACE_WIDTH_LADDER`]`[0]` bits and the exploration *retries from
//! scratch* with the next wider rung whenever an encode overflows
//! (see [`StateLayout::widen`]). The final widths therefore depend only
//! on the model's reachable token counts, never on thread interleaving,
//! preserving the engine's determinism guarantee. Fields never straddle
//! a word boundary, so encode/decode are a shift and a mask per field.
//!
//! # Reading a source state
//!
//! Successor generation reads three things of the state it expands: the
//! marking, which expanded activities hold a phase, and a handful of
//! individual counters. [`StateLayout::decode_source`] serves the first
//! two without a per-field [`FieldSpec`]: because every place field has
//! the *same* width — no place has a bound of its own, so all of them
//! sit on one ladder rung and widen together — and every rung divides
//! 64, the place prefix is `64 / width` fields per word at fixed shifts,
//! unpacked by a loop the compiler unrolls per rung. Phase counters are
//! zero for every activity that is not enabled, which in a state of a
//! few hundred fields is almost all of them: the routine finds the
//! non-zero ones by bit-scanning the phase words, so a zero word costs
//! one test and a zero field nothing. The counters themselves are read
//! on demand with [`StateLayout::field`].

/// The place-field width retry ladder (bits). The last rung holds any
/// `u32`, so a retry chain always terminates.
pub(crate) const PLACE_WIDTH_LADDER: [u32; 4] = [4, 8, 16, 32];

/// One field's position inside the packed words.
#[derive(Debug, Clone, Copy)]
struct FieldSpec {
    /// Index of the word holding the field.
    word: usize,
    /// Bit offset inside the word.
    shift: u32,
    /// Field width in bits (1..=32). The field never straddles words.
    width: u32,
}

/// The bit layout of one exploration's packed state vectors.
#[derive(Debug, Clone)]
pub struct StateLayout {
    fields: Vec<FieldSpec>,
    /// Packed words per state.
    words: usize,
    /// Number of leading place fields (the marking prefix).
    places: usize,
    /// Current rung of [`PLACE_WIDTH_LADDER`] used for place fields.
    place_rung: usize,
    /// The word the first phase field sits in (or would): the place
    /// prefix fills every word before it.
    phase_word0: usize,
    /// Per bit of the words from `phase_word0` on, the phase field
    /// covering it (place and padding bits are never looked up): what
    /// turns a set bit found by [`Self::decode_source`] back into its
    /// field.
    phase_at_bit: Vec<u32>,
}

/// Raised by [`StateLayout::encode`] and [`StateLayout::patch`] when a
/// field value does not fit its bit width; the exploration reacts by widening the place fields
/// and restarting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackOverflow;

impl StateLayout {
    /// A layout for `places` place fields at the narrowest ladder rung,
    /// plus one phase-counter field per entry of `phase_maxes` (the
    /// largest value the counter can hold, i.e. the plan's phase
    /// count).
    pub(crate) fn new(places: usize, phase_maxes: &[u32]) -> Self {
        Self::with_rung(places, phase_maxes, 0)
    }

    fn with_rung(places: usize, phase_maxes: &[u32], rung: usize) -> Self {
        let place_bits = PLACE_WIDTH_LADDER[rung];
        let widths = std::iter::repeat(place_bits)
            .take(places)
            .chain(phase_maxes.iter().map(|&m| bits_for(m)));
        let mut fields = Vec::with_capacity(places + phase_maxes.len());
        let mut word = 0usize;
        let mut shift = 0u32;
        for width in widths {
            if shift + width > 64 {
                word += 1;
                shift = 0;
            }
            fields.push(FieldSpec { word, shift, width });
            shift += width;
        }
        let words = if fields.is_empty() { 1 } else { word + 1 };
        let phase_word0 = places / (64 / place_bits) as usize;
        let mut phase_at_bit = vec![0u32; words.saturating_sub(phase_word0) * 64];
        for (i, f) in fields.iter().enumerate().skip(places) {
            let lo = (f.word - phase_word0) * 64 + f.shift as usize;
            phase_at_bit[lo..lo + f.width as usize].fill(i as u32);
        }
        Self {
            fields,
            words,
            places,
            place_rung: rung,
            phase_word0,
            phase_at_bit,
        }
    }

    /// The same layout with place fields one ladder rung wider.
    /// Returns `None` at the top rung (32 bits holds any token count,
    /// so an overflow there is impossible).
    pub(crate) fn widen(&self) -> Option<Self> {
        let rung = self.place_rung + 1;
        if rung >= PLACE_WIDTH_LADDER.len() {
            return None;
        }
        let phase_maxes: Vec<u32> = self.fields[self.places..]
            .iter()
            .map(|f| ((1u64 << f.width) - 1) as u32)
            .collect();
        Some(Self::with_rung(self.places, &phase_maxes, rung))
    }

    /// Packed words per state.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Total fields (places + phase counters).
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Packs `values` (one per field) into `out`, which must hold
    /// exactly [`Self::words`] words.
    ///
    /// The loop accumulates each word in a register and folds the
    /// per-field overflow checks into one branchless OR tested at the
    /// end.
    pub(crate) fn encode(&self, values: &[u32], out: &mut [u64]) -> Result<(), PackOverflow> {
        debug_assert_eq!(values.len(), self.fields.len());
        debug_assert_eq!(out.len(), self.words);
        out.fill(0);
        let mut word = 0usize;
        let mut acc = 0u64;
        let mut overflow = 0u64;
        for (f, &v) in self.fields.iter().zip(values) {
            let v = u64::from(v);
            overflow |= v >> f.width;
            if f.word != word {
                // The greedy layout never skips a word.
                out[word] = acc;
                word = f.word;
                acc = 0;
            }
            acc |= v << f.shift;
        }
        if !self.fields.is_empty() {
            out[word] = acc;
        }
        if overflow != 0 {
            return Err(PackOverflow);
        }
        Ok(())
    }

    /// Overwrites one field of an already-encoded state in place — how
    /// exploration derives a successor's key from its source's: only
    /// the fields that moved are rewritten. A value that does not fit
    /// the field's width leaves `words` untouched and reports the same
    /// [`PackOverflow`] a full [`encode`](Self::encode) would, so the
    /// widen-and-restart ladder works through this path too.
    pub(crate) fn patch(
        &self,
        words: &mut [u64],
        field: usize,
        value: u32,
    ) -> Result<(), PackOverflow> {
        let f = self.fields[field];
        let value = u64::from(value);
        if value >> f.width != 0 {
            return Err(PackOverflow);
        }
        let mask = ((1u64 << f.width) - 1) << f.shift;
        words[f.word] = (words[f.word] & !mask) | (value << f.shift);
        Ok(())
    }

    /// Reads one field of an encoded state.
    pub(crate) fn field(&self, words: &[u64], field: usize) -> u32 {
        let f = self.fields[field];
        ((words[f.word] >> f.shift) & ((1u64 << f.width) - 1)) as u32
    }

    /// Unpacks `words` into `out`, which must hold exactly
    /// [`Self::num_fields`] values. Mirrors `encode`: the current word
    /// rides in a register, advanced at field boundaries.
    pub(crate) fn decode(&self, words: &[u64], out: &mut [u32]) {
        debug_assert_eq!(words.len(), self.words);
        debug_assert_eq!(out.len(), self.fields.len());
        let mut word = 0usize;
        let mut cur = words.first().copied().unwrap_or(0);
        for (f, v) in self.fields.iter().zip(out.iter_mut()) {
            if f.word != word {
                word = f.word;
                cur = words[word];
            }
            // Field widths never reach 64, so the mask shift is safe.
            *v = ((cur >> f.shift) & ((1u64 << f.width) - 1)) as u32;
        }
    }

    /// Unpacks what successor generation reads of a source state: the
    /// place prefix into `tokens` (one per place) and, into `active`,
    /// the fields of the non-zero phase counters, ascending. Equals
    /// [`Self::decode`] restricted to those — see the module docs for
    /// why it is cheaper.
    pub(crate) fn decode_source(&self, words: &[u64], tokens: &mut [u32], active: &mut Vec<usize>) {
        debug_assert_eq!(words.len(), self.words);
        debug_assert_eq!(tokens.len(), self.places);
        match PLACE_WIDTH_LADDER[self.place_rung] {
            4 => unpack_uniform::<4>(words, tokens),
            8 => unpack_uniform::<8>(words, tokens),
            16 => unpack_uniform::<16>(words, tokens),
            _ => unpack_uniform::<32>(words, tokens),
        }
        active.clear();
        // The first phase field follows the last place field: in the
        // same word when the prefix ends mid-word, whose place bits are
        // masked off here.
        let width = PLACE_WIDTH_LADDER[self.place_rung] as usize;
        let shared_bits = self.places % (64 / width) * width;
        for (w, &word) in words[self.phase_word0.min(words.len())..]
            .iter()
            .enumerate()
        {
            let mut rest = word;
            if w == 0 {
                rest &= !((1u64 << shared_bits) - 1);
            }
            while rest != 0 {
                let field = self.phase_at_bit[w * 64 + rest.trailing_zeros() as usize] as usize;
                let f = self.fields[field];
                rest &= !(((1u64 << f.width) - 1) << f.shift);
                active.push(field);
            }
        }
    }

    /// Decodes into a fresh vector.
    pub(crate) fn decode_vec(&self, words: &[u64]) -> Vec<u32> {
        let mut out = vec![0u32; self.fields.len()];
        self.decode(words, &mut out);
        out
    }
}

/// Unpacks `out.len()` fields of `WIDTH` bits each, `64 / WIDTH` to a
/// word from bit 0 up — the layout of a uniform-width prefix.
fn unpack_uniform<const WIDTH: u32>(words: &[u64], out: &mut [u32]) {
    let mask = u64::MAX >> (64 - WIDTH);
    for (chunk, &word) in out.chunks_mut((64 / WIDTH) as usize).zip(words) {
        for (i, v) in chunk.iter_mut().enumerate() {
            *v = ((word >> (i as u32 * WIDTH)) & mask) as u32;
        }
    }
}

/// Bits needed to represent any value in `0..=max` (at least 1).
fn bits_for(max: u32) -> u32 {
    (32 - max.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(layout: &StateLayout, values: &[u32]) {
        let mut words = vec![0u64; layout.words()];
        layout.encode(values, &mut words).expect("fits");
        assert_eq!(layout.decode_vec(&words), values);
    }

    /// Round-trip at every field-width boundary of the ladder: the
    /// maximum representable value fits, one past it overflows.
    #[test]
    fn place_width_boundaries_round_trip_and_overflow() {
        for (rung, &bits) in PLACE_WIDTH_LADDER.iter().enumerate() {
            let layout = StateLayout::with_rung(3, &[], rung);
            let max = ((1u64 << bits) - 1) as u32;
            round_trip(&layout, &[max, 0, max]);
            if bits < 32 {
                let mut words = vec![0u64; layout.words()];
                assert_eq!(
                    layout.encode(&[0, max + 1, 0], &mut words),
                    Err(PackOverflow),
                    "{bits}-bit field must reject {}",
                    max + 1
                );
            }
        }
    }

    /// The checked patch at every rung boundary: the largest value the
    /// field holds lands (and only there), one past it is refused with
    /// the words untouched — the same verdicts `encode` gives.
    #[test]
    fn patch_is_checked_at_every_rung_boundary() {
        for (rung, &bits) in PLACE_WIDTH_LADDER.iter().enumerate() {
            let layout = StateLayout::with_rung(3, &[5], rung);
            let max = ((1u64 << bits) - 1) as u32;
            let mut words = vec![0u64; layout.words()];
            layout.encode(&[1, 2, 3, 5], &mut words).expect("fits");
            assert_eq!(layout.patch(&mut words, 1, max), Ok(()));
            assert_eq!(layout.decode_vec(&words), [1, max, 3, 5]);
            assert_eq!(layout.field(&words, 1), max);
            let mut encoded = vec![0u64; layout.words()];
            layout.encode(&[1, max, 3, 5], &mut encoded).expect("fits");
            assert_eq!(words, encoded, "{bits}-bit rung: patch and encode agree");
            if bits < 32 {
                let before = words.clone();
                assert_eq!(layout.patch(&mut words, 1, max + 1), Err(PackOverflow));
                assert_eq!(words, before, "a refused patch writes nothing");
            }
            // The phase field keeps its own, exact width at every rung.
            assert_eq!(layout.patch(&mut words, 3, 7), Ok(()));
            assert_eq!(layout.patch(&mut words, 3, 8), Err(PackOverflow));
            assert_eq!(layout.decode_vec(&words), [1, max, 3, 7]);
        }
    }

    /// Phase fields get exactly the bits their plan needs, and their
    /// own boundaries hold.
    #[test]
    fn phase_fields_are_exact_width() {
        // Plans with 1, 3, 15, and 16 phases → 1, 2, 4, and 5 bits.
        let layout = StateLayout::new(2, &[1, 3, 15, 16]);
        round_trip(&layout, &[15, 0, 1, 3, 15, 16]);
        let mut words = vec![0u64; layout.words()];
        assert_eq!(
            layout.encode(&[0, 0, 0, 4, 0, 0], &mut words),
            Err(PackOverflow),
            "a 3-phase counter needs rejecting 4"
        );
        // A 16-phase counter gets 5 bits (0..=31): 32 overflows.
        assert_eq!(
            layout.encode(&[0, 0, 0, 0, 0, 32], &mut words),
            Err(PackOverflow)
        );
    }

    /// Widening walks the ladder and tops out at 32 bits.
    #[test]
    fn widen_climbs_the_ladder() {
        let mut layout = StateLayout::new(4, &[7]);
        let mut seen = vec![PLACE_WIDTH_LADDER[0]];
        while let Some(wider) = layout.widen() {
            seen.push(PLACE_WIDTH_LADDER[wider.place_rung]);
            // Phase widths are preserved across widening.
            round_trip(&wider, &[1, 2, 3, 4, 7]);
            layout = wider;
        }
        assert_eq!(seen, PLACE_WIDTH_LADDER);
        round_trip(&layout, &[u32::MAX, 0, u32::MAX, 5, 7]);
    }

    /// Fields never straddle a word boundary: 17 four-bit places fill
    /// 68 bits, so the 17th field starts a second word.
    #[test]
    fn fields_do_not_straddle_words() {
        let layout = StateLayout::new(17, &[]);
        assert_eq!(layout.words(), 2);
        let values: Vec<u32> = (0..17).map(|i| (i % 16) as u32).collect();
        round_trip(&layout, &values);
        // A full state of max values decodes exactly.
        round_trip(&layout, &[15u32; 17]);
    }

    /// The degenerate zero-field layout still occupies one word (so
    /// every state has a non-empty key).
    #[test]
    fn empty_layout_has_one_word() {
        let layout = StateLayout::new(0, &[]);
        assert_eq!(layout.words(), 1);
        assert_eq!(layout.num_fields(), 0);
        let mut words = vec![0u64; 1];
        layout.encode(&[], &mut words).unwrap();
        assert_eq!(words, [0]);
    }

    /// What `decode_source` and on-demand `field` reads must equal:
    /// `decode` — the place prefix, and the fields of the non-zero
    /// phase counters in ascending order.
    fn assert_source_decode_agrees(layout: &StateLayout, values: &[u32]) {
        let mut words = vec![0u64; layout.words()];
        layout.encode(values, &mut words).expect("fits");
        let full = layout.decode_vec(&words);
        assert_eq!(full, values);
        let mut tokens = vec![u32::MAX; layout.places];
        let mut active = vec![usize::MAX; 3]; // stale content must go
        layout.decode_source(&words, &mut tokens, &mut active);
        assert_eq!(tokens, full[..layout.places]);
        let expect: Vec<usize> = (layout.places..full.len())
            .filter(|&f| full[f] != 0)
            .collect();
        assert_eq!(active, expect);
        for (f, &v) in full.iter().enumerate() {
            assert_eq!(layout.field(&words, f), v, "field {f}");
        }
    }

    /// The two shapes the source decode has to get right at every
    /// rung: a place prefix that ends mid-word and shares that word
    /// with the first phase fields, and a layout with no phase field.
    #[test]
    fn source_decode_handles_a_shared_word_and_no_phases() {
        for (rung, &bits) in PLACE_WIDTH_LADDER.iter().enumerate() {
            let per_word = (64 / bits) as usize;
            let max = ((1u64 << bits) - 1) as u32;
            // One place past a full word, then phases in the same word.
            let places = per_word + 1;
            let layout = StateLayout::with_rung(places, &[3, 1, 7, 2], rung);
            assert_eq!(layout.fields[places].word, 1, "{bits}-bit: shared word");
            let mut values = vec![max; places];
            values.extend([0, 1, 0, 2]);
            assert_source_decode_agrees(&layout, &values);
            // All places zero, all phases set: nothing leaks either way.
            let mut values = vec![0; places];
            values.extend([3, 1, 7, 2]);
            assert_source_decode_agrees(&layout, &values);
            // No phase fields: mid-word and word-aligned prefixes.
            for places in [per_word - 1, per_word, 2 * per_word + 3] {
                let layout = StateLayout::with_rung(places, &[], rung);
                assert_source_decode_agrees(&layout, &vec![max; places]);
            }
        }
        assert_source_decode_agrees(&StateLayout::new(0, &[]), &[]);
        assert_source_decode_agrees(&StateLayout::new(0, &[5, 5]), &[0, 4]);
    }

    proptest::proptest! {
        /// Random layouts at every ladder rung, random values (mostly
        /// zero phase counters, like real states).
        #[test]
        fn source_decode_equals_full_decode(
            places in 0usize..70,
            phase_maxes in proptest::collection::vec(1u32..40, 0..90),
            rung in 0usize..4,
            seed in 0u64..(1 << 48),
        ) {
            let layout = StateLayout::with_rung(places, &phase_maxes, rung);
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let place_max = (1u64 << PLACE_WIDTH_LADDER[rung]) - 1;
            let mut values: Vec<u32> =
                (0..places).map(|_| rng.below(place_max + 1) as u32).collect();
            for &m in &phase_maxes {
                let set = rng.below(4) == 0;
                values.push(if set { 1 + rng.below(u64::from(m)) as u32 } else { 0 });
            }
            assert_source_decode_agrees(&layout, &values);
        }
    }

    /// A dense random-ish pattern across three words round-trips.
    #[test]
    fn multi_word_round_trip() {
        let layout = StateLayout::with_rung(9, &[300, 2], 1); // 9×8 + 9 + 2 bits
        assert!(layout.words() >= 2);
        let values = [255, 0, 17, 255, 1, 2, 3, 254, 128, 300, 2];
        round_trip(&layout, &values);
    }
}
