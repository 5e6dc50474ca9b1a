//! Compact bit-packed state encoding.
//!
//! The exploration engine stores every tangible state as a short run of
//! `u64` words instead of an `Arc<[u32]>` token vector: each field of
//! the extended state vector (place token counts, then one phase
//! counter per expanded activity) occupies a fixed bit slice of the
//! packed words. The n = 3 order-2 consensus model has 289 places: 175
//! are never marked in its reachable space, 113 hold at most one token
//! and one holds two. Its states pack into 9 words (72 bytes), where a
//! `u32` per field would pay well over a kilobyte, which is what lets
//! `n = 3` phase-type spaces (multi-million states) fit in RAM. Packed
//! words are also what the concurrent intern table hashes and compares,
//! so every lookup touches 9 words — and, in the external-memory
//! exploration ([`crate::ddd`]), the packed words *are* the sort keys:
//! frontiers are sorted and sort-merged against the on-disk visited
//! runs as fixed-width word tuples, so the canonical `(BFS level,
//! packed key)` order is identical whether dedup happens in the intern
//! table or on disk.
//!
//! # Field widths
//!
//! Phase-counter fields have a statically known range (`0..=P` for a
//! plan with `P` phases) and get exactly the bits they need.
//!
//! Place fields have no a-priori bound — a SAN place can in principle
//! accumulate any token count — but almost every place of the models
//! here holds at most one token. So every place gets a 1-bit field in
//! a uniform prefix (place `p` is bit `p % 64` of word `p / 64`), and a
//! place that needs more also gets an *extension* field holding its
//! high bits (`tokens >> 1`). Extensions sit after the prefix and
//! before the phase fields. A place's total width is a rung of 1, 2, 4,
//! 8, 16 or 32 bits; it starts at the rung that holds its initial
//! marking. When exploration meets a token count its place cannot
//! hold, it reports the place and the count ([`PackOverflow`]), and the
//! driver restarts from scratch with each reported place widened to the
//! rung that holds its count ([`StateLayout::widen`]). Every reported
//! count is a reachable one, so no place widens past the rung of its
//! reachable maximum, and the attempt that finishes holds them all:
//! the final widths are exactly those rungs, whatever the thread count
//! or the number of restarts it took to find them — the engine's
//! determinism guarantee is preserved. Extension and phase fields never
//! straddle a word boundary, so encode and decode are a shift and a
//! mask per field.
//!
//! # Reading a source state
//!
//! Successor generation reads three things of the state it expands: the
//! marking, which expanded activities hold a phase, and a handful of
//! individual counters. [`StateLayout::decode_source`] serves the first
//! two without a per-field [`FieldSpec`]: the prefix is 64 one-bit
//! fields per word at fixed shifts, unpacked by a loop the compiler
//! unrolls, and the few extensions are OR-ed in above the low bits.
//! Phase counters are zero for every activity that is not enabled,
//! which in a state of a few hundred fields is almost all of them: the
//! routine finds the non-zero ones by bit-scanning the phase words
//! through a per-word mask of the bits phase fields cover (a word can
//! also hold prefix and extension bits), so a zero word costs one test
//! and a zero field nothing. The counters themselves are read on demand
//! with [`StateLayout::field`].

/// One field's position inside the packed words.
#[derive(Debug, Clone, Copy)]
struct FieldSpec {
    /// Index of the word holding the field.
    word: usize,
    /// Bit offset inside the word.
    shift: u32,
    /// Field width in bits (0..=32). The field never straddles words.
    /// Width 0 is the absent extension of a one-bit place: it reads 0
    /// and holds nothing else.
    width: u32,
}

impl FieldSpec {
    const NONE: Self = Self {
        word: 0,
        shift: 0,
        width: 0,
    };

    fn mask(self) -> u64 {
        // Widths never reach 64, so the shift is safe.
        (1u64 << self.width) - 1
    }

    fn read(self, words: &[u64]) -> u32 {
        ((words[self.word] >> self.shift) & self.mask()) as u32
    }

    /// Overwrites the field with `value`, which must fit.
    fn write(self, words: &mut [u64], value: u64) {
        let w = &mut words[self.word];
        *w = (*w & !(self.mask() << self.shift)) | (value << self.shift);
    }
}

/// The bit layout of one exploration's packed state vectors.
#[derive(Debug, Clone)]
pub struct StateLayout {
    /// Per field: a place's extension ([`FieldSpec::NONE`] for a
    /// one-bit place), then the phase counters.
    fields: Vec<FieldSpec>,
    /// Packed words per state.
    words: usize,
    /// Number of leading place fields (the marking prefix).
    places: usize,
    /// `(place, extension)` of every place that has an extension,
    /// ascending.
    wide: Vec<(usize, FieldSpec)>,
    /// The word the first phase field sits in (`words` without phase
    /// fields).
    phase_word0: usize,
    /// Per word from `phase_word0` on, the bits phase fields cover.
    phase_mask: Vec<u64>,
    /// Per bit of those words, the phase field covering it (looked up
    /// only under `phase_mask`): what turns a set bit found by
    /// [`Self::decode_source`] back into its field.
    phase_at_bit: Vec<u32>,
}

/// Raised by [`StateLayout::encode`] and [`StateLayout::patch`] when a
/// field value does not fit its bit width; the exploration reacts by
/// widening the place and restarting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackOverflow {
    /// The overflowing field: a place, for every overflow exploration
    /// can meet (phase fields are sized for their plan).
    pub(crate) place: usize,
    /// The value it could not hold.
    pub(crate) value: u32,
}

impl StateLayout {
    /// A layout with one place field per entry of `place_maxes`, each
    /// at the narrowest rung holding that many tokens (exploration
    /// passes the initial marking), plus one phase-counter field per
    /// entry of `phase_maxes` (the largest value the counter can hold,
    /// i.e. the plan's phase count).
    pub(crate) fn new(place_maxes: &[u32], phase_maxes: &[u32]) -> Self {
        let extensions: Vec<u32> = place_maxes.iter().map(|&m| place_width(m) - 1).collect();
        let phases: Vec<u32> = phase_maxes.iter().map(|&m| bits_for(m)).collect();
        Self::from_widths(&extensions, &phases)
    }

    /// Lays out the 1-bit prefix, then the non-empty `extensions` (one
    /// width per place), then the `phases`, each field in the current
    /// word if it fits there and at the start of the next otherwise.
    fn from_widths(extensions: &[u32], phases: &[u32]) -> Self {
        let places = extensions.len();
        let mut fields = Vec::with_capacity(places + phases.len());
        let mut word = places / 64;
        let mut shift = (places % 64) as u32;
        for (i, &width) in extensions.iter().chain(phases).enumerate() {
            if i < places && width == 0 {
                fields.push(FieldSpec::NONE);
                continue;
            }
            if shift + width > 64 {
                word += 1;
                shift = 0;
            }
            fields.push(FieldSpec { word, shift, width });
            shift += width;
        }
        let words = (word + usize::from(shift > 0)).max(1);
        let phase_word0 = fields.get(places).map_or(words, |f| f.word);
        let mut phase_mask = vec![0u64; words - phase_word0];
        let mut phase_at_bit = vec![0u32; phase_mask.len() * 64];
        for (i, f) in fields.iter().enumerate().skip(places) {
            let w = f.word - phase_word0;
            phase_mask[w] |= f.mask() << f.shift;
            let lo = w * 64 + f.shift as usize;
            phase_at_bit[lo..lo + f.width as usize].fill(i as u32);
        }
        let wide = (0..places)
            .filter(|&p| fields[p].width > 0)
            .map(|p| (p, fields[p]))
            .collect();
        Self {
            fields,
            words,
            places,
            wide,
            phase_word0,
            phase_mask,
            phase_at_bit,
        }
    }

    /// The same layout with every place of `overflows` widened to the
    /// narrowest rung that holds the value it overflowed with (a rung
    /// it already exceeds is kept). Phase widths are unchanged.
    pub(crate) fn widen(&self, overflows: &[PackOverflow]) -> Self {
        let (places, phases) = self.fields.split_at(self.places);
        let mut extensions: Vec<u32> = places.iter().map(|f| f.width).collect();
        for o in overflows {
            assert!(
                o.place < self.places,
                "phase fields are sized for their plan"
            );
            let ext = &mut extensions[o.place];
            *ext = (*ext).max(place_width(o.value) - 1);
        }
        let phases: Vec<u32> = phases.iter().map(|f| f.width).collect();
        Self::from_widths(&extensions, &phases)
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
    /// exactly [`Self::words`] words. Reports the first field that
    /// does not fit.
    pub(crate) fn encode(&self, values: &[u32], out: &mut [u64]) -> Result<(), PackOverflow> {
        debug_assert_eq!(values.len(), self.fields.len());
        debug_assert_eq!(out.len(), self.words);
        out.fill(0);
        let mut first = Ok(());
        for (field, &v) in values.iter().enumerate() {
            let r = self.patch(out, field, v);
            if first.is_ok() {
                first = r;
            }
        }
        first
    }

    /// Overwrites one field of an already-encoded state in place — how
    /// exploration derives a successor's key from its source's: only
    /// the fields that moved are rewritten. A place's value splits into
    /// its prefix bit and its extension. A value that does not fit the
    /// field leaves `words` untouched and reports the same
    /// [`PackOverflow`] a full [`encode`](Self::encode) would, so the
    /// widen-and-restart loop works through this path too.
    pub(crate) fn patch(
        &self,
        words: &mut [u64],
        field: usize,
        value: u32,
    ) -> Result<(), PackOverflow> {
        let f = self.fields[field];
        let overflow = PackOverflow {
            place: field,
            value,
        };
        if field < self.places {
            let high = u64::from(value >> 1);
            if high >> f.width != 0 {
                return Err(overflow);
            }
            let (w, bit) = (field / 64, field % 64);
            words[w] = (words[w] & !(1 << bit)) | (u64::from(value & 1) << bit);
            f.write(words, high);
        } else {
            let value = u64::from(value);
            if value >> f.width != 0 {
                return Err(overflow);
            }
            f.write(words, value);
        }
        Ok(())
    }

    /// Reads one field of an encoded state.
    pub(crate) fn field(&self, words: &[u64], field: usize) -> u32 {
        let f = self.fields[field];
        if field < self.places {
            (f.read(words) << 1) | ((words[field / 64] >> (field % 64)) & 1) as u32
        } else {
            f.read(words)
        }
    }

    /// Unpacks `words` into `out`, which must hold exactly
    /// [`Self::num_fields`] values.
    pub(crate) fn decode(&self, words: &[u64], out: &mut [u32]) {
        debug_assert_eq!(words.len(), self.words);
        debug_assert_eq!(out.len(), self.fields.len());
        let (tokens, phases) = out.split_at_mut(self.places);
        self.decode_places(words, tokens);
        for (v, f) in phases.iter_mut().zip(&self.fields[self.places..]) {
            *v = f.read(words);
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
        self.decode_places(words, tokens);
        active.clear();
        let phase_words = words[self.phase_word0..].iter().zip(&self.phase_mask);
        for (w, (&word, &mask)) in phase_words.enumerate() {
            let mut rest = word & mask;
            while rest != 0 {
                let field = self.phase_at_bit[w * 64 + rest.trailing_zeros() as usize] as usize;
                let f = self.fields[field];
                rest &= !(f.mask() << f.shift);
                active.push(field);
            }
        }
    }

    /// The place tokens: the prefix bits, each extension above its
    /// place's bit.
    fn decode_places(&self, words: &[u64], tokens: &mut [u32]) {
        unpack_uniform::<1>(words, tokens);
        for &(p, ext) in &self.wide {
            tokens[p] |= ext.read(words) << 1;
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

/// The total width of a place holding up to `max` tokens: the
/// narrowest rung of 1, 2, 4, 8, 16 and 32 bits that fits.
fn place_width(max: u32) -> u32 {
    bits_for(max).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The largest value `field` holds.
    fn capacity(layout: &StateLayout, field: usize) -> u32 {
        let f = layout.fields[field];
        let bits = f.width + u32::from(field < layout.places);
        (u64::MAX >> (64 - bits)) as u32
    }

    fn round_trip(layout: &StateLayout, values: &[u32]) {
        let mut words = vec![0u64; layout.words()];
        layout.encode(values, &mut words).expect("fits");
        assert_eq!(layout.decode_vec(&words), values);
    }

    /// Round-trip at every place rung: the largest value a place holds
    /// fits, one past it is reported with its place and value — and a
    /// one-bit neighbour refuses 2.
    #[test]
    fn place_width_boundaries_round_trip_and_overflow() {
        for bits in [1u32, 2, 4, 8, 16, 32] {
            let max = (u64::MAX >> (64 - bits)) as u32;
            let layout = StateLayout::new(&[0, max, 1], &[]);
            assert_eq!(capacity(&layout, 1), max, "{bits}-bit rung");
            assert_eq!(capacity(&layout, 0), 1);
            round_trip(&layout, &[1, max, 1]);
            let mut words = vec![0u64; layout.words()];
            if bits < 32 {
                assert_eq!(
                    layout.encode(&[0, max + 1, 0], &mut words),
                    Err(PackOverflow {
                        place: 1,
                        value: max + 1
                    }),
                    "{bits}-bit field must reject {}",
                    max + 1
                );
            }
            assert_eq!(
                layout.encode(&[0, 0, 2], &mut words),
                Err(PackOverflow { place: 2, value: 2 })
            );
        }
    }

    /// The checked patch at every rung boundary: the largest value the
    /// field holds lands (and only there), one past it is refused with
    /// the words untouched — the same verdicts `encode` gives.
    #[test]
    fn patch_is_checked_at_every_rung_boundary() {
        for bits in [1u32, 2, 4, 8, 16, 32] {
            let max = (u64::MAX >> (64 - bits)) as u32;
            let layout = StateLayout::new(&[1, max, 3], &[5]);
            let mut words = vec![0u64; layout.words()];
            layout.encode(&[1, 0, 3, 5], &mut words).expect("fits");
            assert_eq!(layout.patch(&mut words, 1, max), Ok(()));
            assert_eq!(layout.decode_vec(&words), [1, max, 3, 5]);
            assert_eq!(layout.field(&words, 1), max);
            let mut encoded = vec![0u64; layout.words()];
            layout.encode(&[1, max, 3, 5], &mut encoded).expect("fits");
            assert_eq!(words, encoded, "{bits}-bit rung: patch and encode agree");
            if bits < 32 {
                let before = words.clone();
                assert_eq!(
                    layout.patch(&mut words, 1, max + 1),
                    Err(PackOverflow {
                        place: 1,
                        value: max + 1
                    })
                );
                assert_eq!(words, before, "a refused patch writes nothing");
            }
            // The phase field keeps its own, exact width at every rung.
            assert_eq!(layout.patch(&mut words, 3, 7), Ok(()));
            assert_eq!(
                layout.patch(&mut words, 3, 8),
                Err(PackOverflow { place: 3, value: 8 })
            );
            assert_eq!(layout.decode_vec(&words), [1, max, 3, 7]);
        }
    }

    /// Phase fields get exactly the bits their plan needs, and their
    /// own boundaries hold.
    #[test]
    fn phase_fields_are_exact_width() {
        // Plans with 1, 3, 15, and 16 phases → 1, 2, 4, and 5 bits.
        let layout = StateLayout::new(&[15, 0], &[1, 3, 15, 16]);
        let widths: Vec<u32> = layout.fields[2..].iter().map(|f| f.width).collect();
        assert_eq!(widths, [1, 2, 4, 5]);
        round_trip(&layout, &[15, 0, 1, 3, 15, 16]);
        let mut words = vec![0u64; layout.words()];
        assert_eq!(
            layout.encode(&[0, 0, 0, 4, 0, 0], &mut words),
            Err(PackOverflow { place: 3, value: 4 }),
            "a 3-phase counter needs rejecting 4"
        );
        // A 16-phase counter gets 5 bits (0..=31): 32 overflows.
        assert_eq!(
            layout.encode(&[0, 0, 0, 0, 0, 32], &mut words),
            Err(PackOverflow {
                place: 5,
                value: 32
            })
        );
    }

    /// Widening one place at its capacity walks it up the rungs and
    /// leaves every other field alone; one widening sizes each
    /// reported place to its own value, skipping rungs where needed.
    #[test]
    fn widen_climbs_the_ladder() {
        let mut layout = StateLayout::new(&[0; 4], &[7]);
        let mut seen = vec![capacity(&layout, 2)];
        while seen.last() != Some(&u32::MAX) {
            let value = seen.last().unwrap() + 1;
            layout = layout.widen(&[PackOverflow { place: 2, value }]);
            seen.push(capacity(&layout, 2));
            // The other places stay one bit, the phase field exact.
            for p in [0, 1, 3] {
                assert_eq!(capacity(&layout, p), 1);
            }
            assert_eq!(capacity(&layout, 4), 7);
            round_trip(&layout, &[1, 0, value, 1, 7]);
        }
        assert_eq!(seen, [1, 3, 15, 255, 65_535, u32::MAX]);
        round_trip(&layout, &[0, 1, u32::MAX, 0, 5]);

        let layout = StateLayout::new(&[0; 4], &[7]).widen(&[
            PackOverflow { place: 0, value: 2 },
            PackOverflow {
                place: 3,
                value: 300,
            },
            PackOverflow { place: 0, value: 3 },
        ]);
        let caps: Vec<u32> = (0..5).map(|f| capacity(&layout, f)).collect();
        assert_eq!(caps, [3, 1, 1, 65_535, 7]);
        // A report below a place's rung never narrows it.
        let same = layout.widen(&[PackOverflow { place: 3, value: 2 }]);
        assert_eq!(capacity(&same, 3), 65_535);
    }

    /// Extension and phase fields never straddle a word boundary: 60
    /// one-bit places leave 4 bits in word 0, so an 8-bit place's
    /// 7-bit extension starts word 1, and a 2-bit place's fits before
    /// it.
    #[test]
    fn fields_do_not_straddle_words() {
        let mut maxes = vec![0u32; 60];
        maxes[7] = 200; // 8 bits: a 7-bit extension
        maxes[9] = 2; // 2 bits: a 1-bit extension
        let layout = StateLayout::new(&maxes, &[60]);
        let at = |f: usize| (layout.fields[f].word, layout.fields[f].shift);
        assert_eq!(at(7), (1, 0));
        assert_eq!(at(9), (1, 7));
        assert_eq!(at(60), (1, 8), "the 6-bit phase field follows");
        assert_eq!(layout.words(), 2);
        let mut values: Vec<u32> = (0..60).map(|i| i % 2).collect();
        values[7] = 200;
        values[9] = 3;
        values.push(60);
        round_trip(&layout, &values);
    }

    /// The degenerate zero-field layout still occupies one word (so
    /// every state has a non-empty key).
    #[test]
    fn empty_layout_has_one_word() {
        let layout = StateLayout::new(&[], &[]);
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

    /// The shapes the source decode has to get right: a prefix that
    /// ends mid-word and shares that word with extensions and phase
    /// fields (whose set bits must not pass for phases), a word-aligned
    /// prefix, and layouts with no phase field.
    #[test]
    fn source_decode_handles_a_shared_word_and_no_phases() {
        for places in [2usize, 40, 64, 65, 130] {
            let mut maxes = vec![1u32; places];
            maxes[places / 3] = 9; // a 3-bit extension
            maxes[places - 1] = 2; // a 1-bit one
            let layout = StateLayout::new(&maxes, &[3, 1, 7, 2]);
            assert_eq!(
                layout.fields[places].word == (places - 1) / 64,
                places % 64 != 0,
                "{places} places: the phases share the prefix's last word unless it is full"
            );
            let mut values = maxes.clone();
            values[places - 1] = 3;
            values[places / 3] = 15;
            values.extend([0, 1, 0, 2]);
            assert_source_decode_agrees(&layout, &values);
            // All places zero, all phases set: nothing leaks either way.
            let mut values = vec![0; places];
            values.extend([3, 1, 7, 2]);
            assert_source_decode_agrees(&layout, &values);
            // No phase fields.
            let layout = StateLayout::new(&maxes, &[]);
            let mut values = maxes.clone();
            values[places / 3] = 15;
            assert_source_decode_agrees(&layout, &values);
        }
        assert_source_decode_agrees(&StateLayout::new(&[], &[]), &[]);
        assert_source_decode_agrees(&StateLayout::new(&[], &[5, 5]), &[0, 4]);
    }

    proptest::proptest! {
        /// The layout's contract on random layouts: random place
        /// counts, per-place extension widths (most places without
        /// one, like real models) and phase maxima, random values
        /// (mostly zero phase counters, like real states). `encode`,
        /// `patch`, `field`, `decode` and `decode_source` agree, and a
        /// value one past a field's capacity is reported with that
        /// field and that value, by `patch` (writing nothing) and by
        /// `encode` alike.
        #[test]
        fn layout_contract_on_random_layouts(
            places in 0usize..150,
            phase_maxes in proptest::collection::vec(1u32..40, 0..90),
            seed in 0u64..(1 << 48),
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let extensions: Vec<u32> = (0..places)
                .map(|_| if rng.below(5) == 0 { [1, 3, 7, 15, 31][rng.below(5) as usize] } else { 0 })
                .collect();
            let phases: Vec<u32> = phase_maxes.iter().map(|&m| bits_for(m)).collect();
            let layout = StateLayout::from_widths(&extensions, &phases);
            let fields = layout.num_fields();
            let draw = |rng: &mut proptest::TestRng, f: usize| -> u32 {
                if f < places {
                    rng.below(u64::from(capacity(&layout, f)) + 1) as u32
                } else if rng.below(4) == 0 {
                    1 + rng.below(u64::from(phase_maxes[f - places])) as u32
                } else {
                    0
                }
            };
            let values: Vec<u32> = (0..fields).map(|f| draw(&mut rng, f)).collect();
            assert_source_decode_agrees(&layout, &values);

            // Patching every field to a fresh value lands on the
            // encoding of the fresh values.
            let mut words = vec![0u64; layout.words()];
            layout.encode(&values, &mut words).expect("fits");
            let fresh: Vec<u32> = (0..fields).map(|f| draw(&mut rng, f)).collect();
            for (f, &v) in fresh.iter().enumerate() {
                layout.patch(&mut words, f, v).expect("fits");
                proptest::prop_assert_eq!(layout.field(&words, f), v);
            }
            let mut encoded = vec![0u64; layout.words()];
            layout.encode(&fresh, &mut encoded).expect("fits");
            proptest::prop_assert_eq!(&words, &encoded);
            assert_source_decode_agrees(&layout, &fresh);

            // One past the capacity of a random field.
            if fields > 0 {
                let f = rng.below(fields as u64) as usize;
                let cap = capacity(&layout, f);
                if cap < u32::MAX {
                    let past = PackOverflow { place: f, value: cap + 1 };
                    proptest::prop_assert_eq!(layout.patch(&mut words, f, cap + 1), Err(past));
                    proptest::prop_assert_eq!(&words, &encoded);
                    let mut bad = fresh.clone();
                    bad[f] = cap + 1;
                    proptest::prop_assert_eq!(layout.encode(&bad, &mut encoded), Err(past));
                }
            }
        }
    }

    /// A dense pattern across several words round-trips.
    #[test]
    fn multi_word_round_trip() {
        let values = [65_535, 0, 17, 65_535, 1, 2, 3, 254, 70_000, 300, 2];
        let layout = StateLayout::new(&values[..9], &[300, 2]);
        assert!(layout.words() >= 2);
        round_trip(&layout, &values);
    }
}
