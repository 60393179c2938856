//! Myers' 1999 bit-parallel Levenshtein kernel.
//!
//! Computes the unit-cost edit distance by encoding a whole column of the
//! DP matrix in the bits of machine words: the vertical deltas
//! `D[i][j] − D[i−1][j] ∈ {−1, 0, +1}` are held as a positive mask `Pv`
//! and a negative mask `Mv`, and one column transition is ~15 word
//! operations regardless of the pattern length — `O(⌈m/64⌉·n)` total
//! versus the classic DP's `O(m·n)` cell updates (G. Myers, *A fast
//! bit-vector algorithm for approximate string matching based on dynamic
//! programming*, JACM 1999; block formulation after Hyyrö 2003).
//!
//! The recurrence is written once — [`block_step`], one column of one
//! 64-row block, over a small lane-word abstraction ([`LaneWord`]) — and
//! read at two widths: [`word_step`] for a pattern of ≤ 64 rows (the block
//! step under a constant `+1` carry), [`blocked_step`] for more. The
//! abstraction has three instances: `u64` (one candidate per word),
//! `[u64; 4]` and, behind `#[target_feature(enable = "avx2")]`, an AVX2
//! register (four candidates per word, [`Lanes4`]). Every rung of the
//! kernel-selection ladder (`DESIGN.md` §7.2) is a driver over those steps:
//!
//! * one **scalar scan** per width ([`word_scan`], [`blocked_scan`]), the
//!   `u64` instance, parameterised by where a text char's equality word
//!   comes from (a fresh table; a prepared table read from the shared
//!   prefix on; [`PeqBlocks::window`]) and by `const BOUNDED`, which
//!   compiles the k-bounded early exit in or out (abandon as soon as the
//!   running bottom-row score can no longer descend to `k`);
//! * one **chunk kernel** ([`Chunk`], `DESIGN.md` §7.6), which holds the
//!   column state of eight candidates of one prepared query in two
//!   four-lane words and advances all of them per text column — AVX2 where
//!   [`dispatch_lanes`] detects it, the same kernel over `[u64; 4]`
//!   elsewhere — with the scalar scans beside it as its oracle.
//!
//! All entry points first strip the common prefix and suffix (equal
//! flanks cannot change the distance, and near-duplicate pairs — the
//! dominant verification workload — share most of both), then dispatch on
//! the *stripped* pattern length: [`myers_chars`] / [`myers_bounded_chars`]
//! are the two entries of the one stock kernel (table built per pair),
//! `PreparedPattern` is the compiled query the verification loop holds,
//! and [`myers`] / [`myers_bounded`] are the same over `&str`.
//!
//! Every invocation counts which rung fired (`edit_kernel` section of
//! `RunMetrics`), so pipeline runs show which path verification actually
//! took.

use fuzzydedup_metrics::{incr, Counter};

/// Pattern-equality bitmasks for a ≤ 64-char pattern: `get(c)` has bit
/// `i` set iff `pattern[i] == c`. ASCII is direct-indexed; other scalars
/// go to a (tiny, usually empty) spill list.
struct PeqWord {
    ascii: [u64; 128],
    spill: Vec<(char, u64)>,
}

impl PeqWord {
    fn build(pattern: &[char]) -> Self {
        debug_assert!(pattern.len() <= 64);
        let mut ascii = [0u64; 128];
        let mut spill: Vec<(char, u64)> = Vec::new();
        for (i, &c) in pattern.iter().enumerate() {
            let bit = 1u64 << i;
            if (c as u32) < 128 {
                ascii[c as usize] |= bit;
            } else if let Some(entry) = spill.iter_mut().find(|(s, _)| *s == c) {
                entry.1 |= bit;
            } else {
                spill.push((c, bit));
            }
        }
        Self { ascii, spill }
    }

    #[inline]
    fn get(&self, c: char) -> u64 {
        if (c as u32) < 128 {
            self.ascii[c as usize]
        } else {
            self.spill.iter().find(|(s, _)| *s == c).map_or(0, |(_, bits)| *bits)
        }
    }
}

/// Pattern-equality bitmasks for a blocked (> 64-char) pattern: one
/// [`PeqWord`] per 64-row block, so a block's word for a char is one load
/// off that block's own table.
struct PeqBlocks {
    /// Pattern length in chars.
    m: usize,
    blocks: Vec<PeqWord>,
}

impl PeqBlocks {
    fn build(pattern: &[char]) -> Self {
        Self { m: pattern.len(), blocks: pattern.chunks(64).map(PeqWord::build).collect() }
    }

    /// Blocks: `⌈m / 64⌉`.
    #[inline]
    fn w(&self) -> usize {
        self.blocks.len()
    }

    /// Bottom-row bit of the last (possibly partial) block.
    #[inline]
    fn last_high(&self) -> u64 {
        1u64 << ((self.m - 1) % 64)
    }

    /// 64 consecutive equality bits of `c` starting at pattern position
    /// `pre` — the single-word view of a ≤ 64-char window into a blocked
    /// table. Bits past the window are garbage exactly as the word
    /// kernel's bits above `m − 1` are (see [`word_step`]).
    #[inline]
    fn window(&self, c: char, pre: usize) -> u64 {
        let (blk, off) = (pre / 64, pre % 64);
        let lo = self.blocks[blk].get(c) >> off;
        match self.blocks.get(blk + 1) {
            Some(next) if off != 0 => lo | (next.get(c) << (64 - off)),
            _ => lo,
        }
    }
}

/// The word operations one Myers column is made of, over the candidates a
/// word holds side by side — one in a `u64` (the scalar scans), four in a
/// `[u64; 4]` or an AVX2 register (the chunk kernel, [`Lanes4`]). Every
/// operation acts on each 64-bit lane independently.
trait LaneWord: Copy {
    /// `x` in every lane.
    fn splat(x: u64) -> Self;
    fn and(self, o: Self) -> Self;
    fn or(self, o: Self) -> Self;
    fn xor(self, o: Self) -> Self;
    /// Wrapping sum.
    fn add(self, o: Self) -> Self;
    /// Wrapping difference.
    fn sub(self, o: Self) -> Self;
    /// `self >> 63`: the top bit as a 0/1 word.
    fn shr63(self) -> Self;
    /// All ones in a lane that is zero, zero in any other.
    fn zero_mask(self) -> Self;

    #[inline(always)]
    fn not(self) -> Self {
        self.xor(Self::splat(!0))
    }
    /// `self << 1`.
    #[inline(always)]
    fn shl1(self) -> Self {
        self.add(self)
    }
}

impl LaneWord for u64 {
    #[inline(always)]
    fn splat(x: u64) -> Self {
        x
    }
    #[inline(always)]
    fn and(self, o: Self) -> Self {
        self & o
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        self | o
    }
    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        self ^ o
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.wrapping_add(o)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.wrapping_sub(o)
    }
    #[inline(always)]
    fn shr63(self) -> Self {
        self >> 63
    }
    #[inline(always)]
    fn zero_mask(self) -> Self {
        u64::from(self == 0).wrapping_neg()
    }
}

/// One column transition of one 64-row block, in every lane of `W` at once
/// (Hyyrö's formulation of the Myers recurrence, with explicit horizontal
/// carries between blocks): the one place the recurrence is written.
///
/// `hp`/`hm` are 0/1 words: the horizontal delta entering the block's top
/// row is `+1` where `hp` is set, `−1` where `hm` is, else `0`. Returns the
/// block's horizontal deltas `(ph, mh)`, bit `i` for row `i` — the caller
/// reads the carry into the next block off bit 63 ([`LaneWord::shr63`]), or
/// the bottom-row delta off the pattern's last row ([`bottom_delta`]).
/// Garbage above a partial last block's rows never propagates downward:
/// carries in the embedded addition only travel toward higher bits.
#[inline(always)]
fn block_step<W: LaneWord>(pv: &mut W, mv: &mut W, eq: W, hp: W, hm: W) -> (W, W) {
    let xv = eq.or(*mv);
    let eq = eq.or(hm);
    let xh = eq.and(*pv).add(*pv).xor(*pv).or(eq);
    let ph = mv.or(xh.or(*pv).not());
    let mh = pv.and(xh);
    let (ph_in, mh_in) = (ph.shl1().or(hp), mh.shl1().or(hm));
    *pv = mh_in.or(xv.or(ph_in).not());
    *mv = ph_in.and(xv);
    (ph, mh)
}

/// The bottom-row delta `D[m][j] − D[m][j−1]` of a column whose horizontal
/// deltas are `(ph, mh)`, read at bit `high`: `+1`, `0` or `−1` in two's
/// complement. A lane whose `high` is zero reads `0` — how the chunk kernel
/// freezes the score of a lane past its end.
#[inline(always)]
fn bottom_delta<W: LaneWord>((ph, mh): (W, W), high: W) -> W {
    // `zero_mask` is −1 where the bit is clear: (1 + p) − (1 + m) = p − m.
    ph.and(high).zero_mask().sub(mh.and(high).zero_mask())
}

/// One column of a pattern of ≤ 64 rows: [`block_step`] under the top
/// boundary row `D[0][j] = j` (a constant `+1` carry, which folds away and
/// keeps the state in registers). Bits of `eq` above `high` may hold
/// anything: carries only travel upward, so they never reach the watched
/// bit.
#[inline(always)]
fn word_step<W: LaneWord>(pv: &mut W, mv: &mut W, eq: W, high: W) -> W {
    bottom_delta(block_step(pv, mv, eq, W::splat(1), W::splat(0)), high)
}

/// One column of a blocked pattern: the blocks top to bottom, each handing
/// its bottom row's horizontal delta to the next. `pv` and `mv` hold one
/// word per block and `eq_of(k)` is block `k`'s equality word; returns the
/// bottom-row delta.
#[inline(always)]
fn blocked_step<W: LaneWord>(
    pv: &mut [W],
    mv: &mut [W],
    eq_of: impl Fn(usize) -> W,
    last_high: W,
) -> W {
    let (mut hp, mut hm) = (W::splat(1), W::splat(0));
    let mut bottom = (hm, hm);
    for (k, (pv, mv)) in pv.iter_mut().zip(mv).enumerate() {
        bottom = block_step(pv, mv, eq_of(k), hp, hm);
        (hp, hm) = (bottom.0.shr63(), bottom.1.shr63());
    }
    bottom_delta(bottom, last_high)
}

/// The bottom-row score `D[m][j]` of one scan and the bound it is held to.
#[derive(Clone, Copy)]
struct Row {
    score: isize,
    bound: isize,
}

impl Row {
    /// Column 0 of an `m`-row pattern. The bound is clamped into `isize`:
    /// no distance exceeds a slice length, so the clamp changes no answer,
    /// where a bare `bound as isize` wraps negative above `isize::MAX` and
    /// rejects every pair on its first column.
    fn new(m: usize, bound: usize) -> Self {
        Self { score: m as isize, bound: bound.min(isize::MAX as usize) as isize }
    }

    /// Whether no suffix can bring the score back within the bound: each
    /// of the `left` remaining columns lowers it by at most 1.
    #[inline(always)]
    fn out_of_reach(&self, left: usize) -> bool {
        self.score - left as isize > self.bound
    }

    /// The answer once the last column is in.
    fn answer(&self) -> Option<usize> {
        (self.score <= self.bound).then_some(self.score as usize)
    }
}

/// The scalar single-word scan: an `m ≤ 64`-row pattern, whose equality
/// word for a text char comes from `eq_at` — a fresh table, a prepared
/// table shifted past the shared prefix, or [`PeqBlocks::window`] — against
/// any text. `BOUNDED` compiles the per-column early exit in or out (an
/// unbounded scan passes `usize::MAX` and always answers); a run-time
/// sentinel bound checked per column measured slower end to end.
fn word_scan<const BOUNDED: bool>(
    eq_at: impl Fn(char) -> u64,
    m: usize,
    text: &[char],
    bound: usize,
) -> Option<usize> {
    debug_assert!((1..=64).contains(&m));
    if !BOUNDED {
        incr(Counter::EdKernelWord, 1);
    }
    let high = 1u64 << (m - 1);
    let (mut pv, mut mv) = (!0u64, 0u64);
    let mut row = Row::new(m, bound);
    let n = text.len();
    for (j, &c) in text.iter().enumerate() {
        row.score += word_step(&mut pv, &mut mv, eq_at(c), high) as isize;
        if BOUNDED && row.out_of_reach(n - j - 1) {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    row.answer()
}

/// The scalar blocked scan, `⌈m/64⌉` words per column: the only path for
/// patterns the chunk kernel's lanes do not hold (beyond [`BLOCKED_MAX_W`]
/// blocks) and for the stock kernel's > 64-char pairs. `pv`/`mv` are the
/// caller's column buffers, so a prepared query allocates nothing per
/// candidate.
fn blocked_scan<const BOUNDED: bool>(
    peq: &PeqBlocks,
    text: &[char],
    bound: usize,
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
) -> Option<usize> {
    debug_assert!(peq.w() >= 2);
    if !BOUNDED {
        incr(Counter::EdKernelBlocked, 1);
    }
    pv.clear();
    pv.resize(peq.w(), !0u64);
    mv.clear();
    mv.resize(peq.w(), 0);
    let last_high = peq.last_high();
    let mut row = Row::new(peq.m, bound);
    let n = text.len();
    for (j, &c) in text.iter().enumerate() {
        row.score += blocked_step(pv, mv, |k| peq.blocks[k].get(c), last_high) as isize;
        if BOUNDED && row.out_of_reach(n - j - 1) {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    row.answer()
}

/// Lengths of the common prefix and, over what it leaves, the common
/// suffix of two strings. Equal flanks never change the Levenshtein
/// distance, and near-duplicates (the dominant verification workload)
/// share most of both.
fn common_affixes(a: &[char], b: &[char]) -> (usize, usize) {
    let pre = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (ar, br) = (&a[pre..], &b[pre..]);
    let suf = ar.iter().rev().zip(br.iter().rev()).take_while(|(x, y)| x == y).count();
    (pre, suf)
}

/// The stock kernel behind [`myers_chars`] and [`myers_bounded_chars`]:
/// strip the shared affixes, take the shorter side as the pattern (fewer
/// blocks, and the single-word scan applies whenever `min(|a|, |b|) ≤ 64`
/// after stripping), build its table and scan.
fn stock<const BOUNDED: bool>(a: &[char], b: &[char], bound: usize) -> Option<usize> {
    if BOUNDED {
        incr(Counter::EdKernelBounded, 1);
    }
    let (pre, suf) = common_affixes(a, b);
    let (a, b) = (&a[pre..a.len() - suf], &b[pre..b.len() - suf]);
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // The length gap is a lower bound on the distance.
    if text.len() - pattern.len() > bound {
        incr(Counter::EdKernelEarlyExit, 1);
        return None;
    }
    if pattern.is_empty() {
        return Some(text.len());
    }
    if pattern.len() <= 64 {
        let peq = PeqWord::build(pattern);
        word_scan::<BOUNDED>(|c| peq.get(c), pattern.len(), text, bound)
    } else {
        let peq = PeqBlocks::build(pattern);
        blocked_scan::<BOUNDED>(&peq, text, bound, &mut Vec::new(), &mut Vec::new())
    }
}

/// Bit-parallel Levenshtein distance over pre-collected char slices.
/// Dispatches to the single-word path when the shorter string fits one
/// machine word, else the blocked multi-word path. Exact for all inputs
/// (equivalence with the reference DP is property-tested).
pub fn myers_chars(a: &[char], b: &[char]) -> usize {
    stock::<false>(a, b, usize::MAX).expect("an unbounded scan always answers")
}

/// [`myers_chars`] over `&str` inputs (chars collected internally).
///
/// ```
/// use fuzzydedup_textdist::myers;
/// assert_eq!(myers("kitten", "sitting"), 3);
/// assert_eq!(myers("", "abc"), 3);
/// ```
pub fn myers(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    myers_chars(&a, &b)
}

/// k-bounded Myers over pre-collected char slices: `Some(d)` iff the
/// distance `d` is `≤ bound`, `None` as soon as it provably exceeds it.
///
/// The early exit watches the bottom-row score: column `j`'s score can
/// decrease by at most 1 per remaining column, so once
/// `score − (n − j) > bound` no suffix can recover. Verification loops in
/// the nearest-neighbor indexes call this with their current best-so-far
/// distance as the cutoff, which abandons most losing candidates after a
/// prefix of the text.
pub fn myers_bounded_chars(a: &[char], b: &[char], bound: usize) -> Option<usize> {
    stock::<true>(a, b, bound)
}

/// [`myers_bounded_chars`] over `&str` inputs.
///
/// ```
/// use fuzzydedup_textdist::myers_bounded;
/// assert_eq!(myers_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(myers_bounded("kitten", "sitting", 2), None);
/// ```
pub fn myers_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    myers_bounded_chars(&a, &b, bound)
}

/// A query compiled once for repeated edit-distance evaluation against
/// many candidate texts (the prepared-distance layer, DESIGN.md §7.5).
///
/// The pattern-equality table is built over the *unstripped* query at
/// prepare time. Per candidate only the common-affix lengths are counted;
/// a stripped window of ≤ 64 query chars then reuses the table by reading
/// each equality word from the window's first row on — a shift for a word
/// table, [`PeqBlocks::window`] for a blocked one — the affix strip without
/// any per-candidate table rebuild (the stock kernel re-strips and rebuilds
/// `Peq` from scratch for every pair). Blocked (> 64-char) queries also
/// reuse their table whole when no affix is shared. A shared affix that
/// leaves a multi-word window has no view into the table: the scalar entry
/// falls back to the stock kernel (re-strip, rebuild), a batch scans the
/// *unstripped* text against the whole query in a blocked lane (the
/// distance is affix-invariant, and a vector lane's extra columns cost less
/// than a 2 KiB table rebuild).
///
/// `'t` is the lifetime of the candidate texts: batch requests outlive the
/// pattern, so the chunk kernel's lanes that borrow them are buffers the
/// pattern owns and reuses across batches.
pub(crate) struct PreparedPattern<'t> {
    query: Vec<char>,
    kind: PreparedKind,
    /// Scalar blocked-scan column state, reused across candidates.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// The chunk kernel's lanes, refilled per batch: windows of ≤ 64 query
    /// rows, and whole blocked queries.
    word_lanes: Vec<Lane<'t>>,
    blocked_lanes: Vec<Lane<'t>>,
}

// The word-path table dwarfs the blocked variant, but a pattern is
// prepared once per lookup and held by value — boxing would buy bytes
// at the cost of a pointer chase on every candidate.
#[allow(clippy::large_enum_variant)]
enum PreparedKind {
    /// Query ≤ 64 chars (the empty query short-circuits before use).
    Word(PeqWord),
    /// Query > 64 chars.
    Blocked(PeqBlocks),
}

/// How one candidate is verified — decided from its length and shared
/// affixes alone, so the scalar entries and the batch cannot disagree.
enum Route<'x> {
    /// A shared affix leaves a multi-word window of a blocked table, and the
    /// caller has no lane to scan the unstripped text in: the stock kernel
    /// (which counts itself).
    Stock,
    /// The length gap alone exceeds the bound.
    Gap,
    /// Nothing of the query is left after stripping: the distance is what
    /// is left of the text.
    Rest(usize),
    /// Scan the stripped `text` against the `rows` query rows from `pre`
    /// on: a single-word window when `rows ≤ 64`, else the whole blocked
    /// query.
    Scan { pre: usize, rows: usize, text: &'x [char] },
}

impl<'t> PreparedPattern<'t> {
    /// Compile a query's equality table once.
    pub fn new(query: Vec<char>) -> Self {
        let kind = if query.len() <= 64 {
            PreparedKind::Word(PeqWord::build(&query))
        } else {
            PreparedKind::Blocked(PeqBlocks::build(&query))
        };
        Self {
            query,
            kind,
            pv: Vec::new(),
            mv: Vec::new(),
            word_lanes: Vec::new(),
            blocked_lanes: Vec::new(),
        }
    }

    /// The compiled query.
    pub fn query(&self) -> &[char] {
        &self.query
    }

    /// `unstripped_lane`: whether the caller can scan a whole blocked query
    /// in a lane (a batch, up to [`BLOCKED_MAX_W`] blocks).
    fn route<'x>(&self, text: &'x [char], bound: usize, unstripped_lane: bool) -> Route<'x> {
        let (mut pre, mut suf) = common_affixes(&self.query, text);
        let mut rows = self.query.len() - pre - suf;
        if matches!(self.kind, PreparedKind::Blocked(_)) && (pre != 0 || suf != 0) && rows > 64 {
            if !unstripped_lane {
                return Route::Stock;
            }
            // Equal flanks change neither the distance nor the length gap.
            (pre, suf, rows) = (0, 0, self.query.len());
        }
        let left = text.len() - pre - suf;
        // The length gap bounds the distance from below; the query may sit
        // on either side of the candidate's length.
        if left.abs_diff(rows) > bound {
            return Route::Gap;
        }
        if rows == 0 {
            return Route::Rest(left);
        }
        Route::Scan { pre, rows, text: &text[pre..text.len() - suf] }
    }

    /// The scalar entry over the scans, bounded or not. Not a batch of
    /// one: callers hand it text decoded into scratch of their own, which
    /// does not live for the lanes' `'t`.
    fn scalar<const BOUNDED: bool>(&mut self, text: &[char], bound: usize) -> Option<usize> {
        let route = self.route(text, bound, false);
        if BOUNDED && !matches!(route, Route::Stock) {
            incr(Counter::EdKernelBounded, 1);
        }
        match route {
            Route::Stock => stock::<BOUNDED>(&self.query, text, bound),
            Route::Gap => {
                incr(Counter::EdKernelEarlyExit, 1);
                None
            }
            Route::Rest(d) => Some(d),
            Route::Scan { pre, rows, text: st } => match &self.kind {
                PreparedKind::Word(peq) => {
                    word_scan::<BOUNDED>(|c| peq.get(c) >> pre, rows, st, bound)
                }
                // The window rung is the bounded entries' alone: a lookup's
                // few unbounded warm-up calls re-strip through the stock
                // kernel.
                PreparedKind::Blocked(_) if rows <= 64 && !BOUNDED => {
                    stock::<BOUNDED>(&self.query, text, bound)
                }
                PreparedKind::Blocked(peq) if rows <= 64 => {
                    word_scan::<BOUNDED>(|c| peq.window(c, pre), rows, st, bound)
                }
                PreparedKind::Blocked(peq) => {
                    blocked_scan::<BOUNDED>(peq, st, bound, &mut self.pv, &mut self.mv)
                }
            },
        }
    }

    /// Exact distance to a candidate (equivalent to
    /// [`myers_chars`]`(query, text)`).
    pub fn distance(&mut self, text: &[char]) -> usize {
        self.scalar::<false>(text, usize::MAX).expect("an unbounded scan always answers")
    }

    /// k-bounded distance to a candidate (equivalent to
    /// [`myers_bounded_chars`]`(query, text, bound)`).
    pub fn bounded(&mut self, text: &[char], bound: usize) -> Option<usize> {
        self.scalar::<true>(text, bound)
    }

    /// Batched k-bounded distances: `out[i]` ends up exactly what
    /// [`PreparedPattern::bounded`]`(texts[i], bounds[i])` returns — same
    /// results, same `edit_kernel` totals — but candidates that reach a scan
    /// are verified by the *chunk kernel* ([`Chunk`]), eight to a text
    /// column in vector lanes. Everything a scan does not decide, and
    /// blocked queries too wide for the lanes, is answered as the scalar
    /// entry answers it.
    pub fn bounded_batch(
        &mut self,
        requests: &[(&'t [char], usize)],
        out: &mut Vec<Option<usize>>,
    ) {
        self.bounded_batch_on(requests, out, dispatch_lanes);
    }

    /// [`PreparedPattern::bounded_batch`] with its lanes run by `run` — the
    /// dispatch, or (from the tests) one instance of [`run_lanes`] called
    /// directly. A routing pass answers into `out` everything a lane does
    /// not decide and queues the rest as lanes; `run` scans those.
    fn bounded_batch_on(
        &mut self,
        requests: &[(&'t [char], usize)],
        out: &mut Vec<Option<usize>>,
        run: RunLanes,
    ) {
        out.clear();
        out.resize(requests.len(), None);
        self.word_lanes.clear();
        self.blocked_lanes.clear();
        let in_lanes = match &self.kind {
            PreparedKind::Word(_) => true,
            PreparedKind::Blocked(peq) => peq.w() <= BLOCKED_MAX_W,
        };
        let (mut bounded_calls, mut gap_exits) = (0u64, 0u64);
        for (i, &(text, bound)) in requests.iter().enumerate() {
            let route = self.route(text, bound, in_lanes);
            bounded_calls += u64::from(!matches!(route, Route::Stock));
            match route {
                // Only past `BLOCKED_MAX_W` blocks: a narrower query rides a
                // lane unstripped.
                Route::Stock => out[i] = myers_bounded_chars(&self.query, text, bound),
                Route::Gap => gap_exits += 1,
                Route::Rest(d) => out[i] = Some(d),
                Route::Scan { pre, rows, text } => match &self.kind {
                    PreparedKind::Blocked(peq) if rows > 64 && !in_lanes => {
                        out[i] = blocked_scan::<true>(peq, text, bound, &mut self.pv, &mut self.mv);
                    }
                    _ => {
                        let lanes =
                            if rows > 64 { &mut self.blocked_lanes } else { &mut self.word_lanes };
                        let row = Row::new(rows, bound);
                        lanes.push(Lane { text, out_idx: i as u32, pre: pre as u32, row });
                    }
                },
            }
        }
        let tally = run(&self.kind, &mut self.word_lanes, &mut self.blocked_lanes, out);
        incr(Counter::EdKernelBounded, bounded_calls);
        incr(Counter::EdKernelEarlyExit, gap_exits + tally.early_exits);
        incr(Counter::VerifyColumnsOffered, tally.columns_offered);
        incr(Counter::VerifyColumnsScanned, tally.columns_scanned);
    }
}

/// What runs the lanes of one batch, word lanes then blocked lanes:
/// [`dispatch_lanes`], or one instance of [`run_lanes`].
type RunLanes =
    for<'t> fn(&PreparedKind, &mut [Lane<'t>], &mut [Lane<'t>], &mut [Option<usize>]) -> LaneTally;

/// One candidate queued for the chunk kernel: what a scalar scan is called
/// with.
struct Lane<'t> {
    /// The stripped text to scan.
    text: &'t [char],
    out_idx: u32,
    /// A word lane's first query row (its window into the prepared table);
    /// 0 in a blocked lane.
    pre: u32,
    /// Column 0: the query rows scanned as the score, and the bound.
    row: Row,
}

impl Lane<'_> {
    /// The bottom row's bit in its (last) word.
    fn high(&self) -> u64 {
        1 << ((self.row.score - 1) % 64)
    }
}

/// Four candidates side by side in one [`LaneWord`]: what the chunk kernel
/// needs beyond the column step.
trait Lanes4: LaneWord {
    fn from_lanes(lanes: [u64; 4]) -> Self;
    fn to_lanes(self) -> [u64; 4];
    /// All ones in a lane where `self > o` as signed integers, else zero.
    fn gt(self, o: Self) -> Self;
    /// Whether any bit of any lane is set.
    fn any(self) -> bool;
}

/// `[u64; 4]` methods that apply the `u64` method of the same name to each
/// lane.
macro_rules! lane_by_lane {
    ($($op:ident($($o:ident)?)),*) => {$(
        #[inline(always)]
        fn $op(self $(, $o: Self)?) -> Self {
            std::array::from_fn(|i| self[i].$op($($o[i])?))
        }
    )*};
}

/// The portable instance: four `u64`s in an array, each operation the
/// scalar one lane by lane (which the compiler may or may not vectorise).
/// Compiled and tested on every target; what runs where AVX2 is absent.
impl LaneWord for [u64; 4] {
    #[inline(always)]
    fn splat(x: u64) -> Self {
        [x; 4]
    }
    lane_by_lane! { and(o), or(o), xor(o), add(o), sub(o), shr63(), zero_mask() }
}

impl Lanes4 for [u64; 4] {
    #[inline(always)]
    fn from_lanes(lanes: [u64; 4]) -> Self {
        lanes
    }
    #[inline(always)]
    fn to_lanes(self) -> [u64; 4] {
        self
    }
    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        std::array::from_fn(|i| u64::from(self[i] as i64 > o[i] as i64).wrapping_neg())
    }
    #[inline(always)]
    fn any(self) -> bool {
        self != [0; 4]
    }
}

/// The AVX2 instance: four candidates in one 256-bit register.
///
/// `std::arch` intrinsics inline only into code compiled with their target
/// feature, so every generic function between [`run_lanes`](avx2::run_lanes)
/// and the operations below is `#[inline(always)]`, and a closure that
/// holds a vector operation has a single call site: the whole kernel lands
/// in that one function's body. (An intrinsic left as a call costs ~4× the
/// whole run; the tripwire's `chunk[avx2]/… <= scalar/…` rows would show
/// it.) Leaving AVX2 to the auto-vectoriser over arrays was measured
/// instead and is not enough — LLVM scalarises the shift/insert half of the
/// step.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lane, LaneTally, LaneWord, Lanes4, PreparedKind};
    use std::arch::x86_64::*;

    /// Only this module can name the type, and it makes one only inside
    /// [`run_lanes`], whose caller has detected AVX2: that is what makes
    /// the operations below sound.
    #[derive(Clone, Copy)]
    struct Avx2(__m256i);

    /// [`super::run_lanes`] on the AVX2 instance.
    ///
    /// # Safety
    /// The CPU must support AVX2 (`is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn run_lanes(
        kind: &PreparedKind,
        word_lanes: &mut [Lane<'_>],
        blocked_lanes: &mut [Lane<'_>],
        out: &mut [Option<usize>],
    ) -> LaneTally {
        super::run_lanes::<Avx2>(kind, word_lanes, blocked_lanes, out)
    }

    /// Methods that are one two-operand intrinsic.
    macro_rules! binary {
        ($($op:ident = $intrinsic:ident),*) => {$(
            #[inline(always)]
            fn $op(self, o: Self) -> Self {
                // SAFETY: AVX2 is on wherever an `Avx2` exists (see the type).
                Self(unsafe { $intrinsic(self.0, o.0) })
            }
        )*};
    }

    impl LaneWord for Avx2 {
        #[inline(always)]
        fn splat(x: u64) -> Self {
            // SAFETY: AVX2 is on wherever an `Avx2` is made (see the type).
            Self(unsafe { _mm256_set1_epi64x(x as i64) })
        }
        binary! {
            and = _mm256_and_si256, or = _mm256_or_si256, xor = _mm256_xor_si256,
            add = _mm256_add_epi64, sub = _mm256_sub_epi64
        }
        #[inline(always)]
        fn shr63(self) -> Self {
            // SAFETY: as in `splat`.
            Self(unsafe { _mm256_srli_epi64::<63>(self.0) })
        }
        #[inline(always)]
        fn zero_mask(self) -> Self {
            // SAFETY: as in `splat`.
            Self(unsafe { _mm256_cmpeq_epi64(self.0, _mm256_setzero_si256()) })
        }
    }

    impl Lanes4 for Avx2 {
        #[inline(always)]
        fn from_lanes(l: [u64; 4]) -> Self {
            // SAFETY: as in `splat`.
            Self(unsafe { _mm256_set_epi64x(l[3] as i64, l[2] as i64, l[1] as i64, l[0] as i64) })
        }
        #[inline(always)]
        fn to_lanes(self) -> [u64; 4] {
            let mut lanes = [0u64; 4];
            // SAFETY: as in `splat`; the unaligned store writes exactly the
            // 32 bytes of `lanes`.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), self.0) };
            lanes
        }
        binary! { gt = _mm256_cmpgt_epi64 }
        #[inline(always)]
        fn any(self) -> bool {
            // SAFETY: as in `splat`.
            unsafe { _mm256_testz_si256(self.0, self.0) == 0 }
        }
    }
}

/// Candidates a chunk advances together: two [`Lanes4`] words.
const CHUNK_LANES: usize = 8;

/// Widest blocked query (in 64-row blocks) the lanes hold; wider queries
/// take the scalar blocked scan. 4 blocks = 256 pattern chars, comfortably
/// past record-string lengths in the evaluation datasets.
const BLOCKED_MAX_W: usize = 4;

/// What the lanes of one batch count (the caller adds it to the counters
/// once, never per column).
#[derive(Default)]
struct LaneTally {
    /// Lanes rejected: as many as the scalar scans would count early exits,
    /// since a scan counts one on every rejection (`out_of_reach(0)` is
    /// `score > bound` at the last column).
    early_exits: u64,
    /// Sum of the lanes' text lengths.
    columns_offered: u64,
    /// Columns each lane was advanced through while live: up to its own end
    /// or the column its chunk stopped at.
    columns_scanned: u64,
}

/// `f(slot)` for the eight slots of a chunk, as its two vector halves.
#[inline(always)]
fn halves<V: Lanes4>(f: impl Fn(usize) -> u64) -> [V; 2] {
    [V::from_lanes([f(0), f(1), f(2), f(3)]), V::from_lanes([f(4), f(5), f(6), f(7)])]
}

/// The column state of one chunk, as two vector halves of four slots each.
trait ChunkColumns<V> {
    /// Advance half `h` (slots `4h..4h + 4`) one text column: the slots'
    /// chars to equality words (`pres`: each slot's first query row), one
    /// [`word_step`] / [`blocked_step`] over `V`; returns the bottom-row
    /// deltas read at `high`.
    fn step(
        &mut self,
        h: usize,
        chars: &[char; CHUNK_LANES],
        pres: &[u32; CHUNK_LANES],
        high: V,
    ) -> V;
}

/// The chunk kernel: up to [`CHUNK_LANES`] lanes of one prepared query (the
/// shortest first, the longest last — the caller sorts by text length)
/// advanced together, one text column of all of them per iteration.
///
/// Per column the driver gathers each slot's text char and `cols` steps its
/// two halves — the scalar scans' own recurrence, over `V` — returning the
/// bottom-row deltas, which the driver adds to the scores. A lane past its
/// end is handed `high = 0`, which freezes its score ([`bottom_delta`]); an
/// unfilled slot replays lane 0 with `high = 0` and `bound = MIN`, so the
/// gather has a fixed trip count. No lane retires on its own — a vector
/// computes a dead lane for free — but every fourth column one vector test
/// asks whether any lane is unfinished and still within reach of its bound
/// ([`Row::out_of_reach`], on all lanes at once), and the chunk stops when
/// none is. At the end each lane answers as [`Row::answer`] does, if it
/// finished: being out of reach is monotone, so a scalar scan rejects
/// exactly the lanes that end above their bound or never end.
struct Chunk<'a, 't, V, C> {
    lanes: &'a [Lane<'t>],
    /// Per slot: the text and the lane's first query row.
    texts: [&'t [char]; CHUNK_LANES],
    pres: [u32; CHUNK_LANES],
    cols: C,
    scores: [V; 2],
    /// The bottom-row bit of each lane still running, zero elsewhere.
    highs: [V; 2],
    lens: [V; 2],
    /// `bound + len`: a lane is out of reach after `done` columns once
    /// `score + done` exceeds it (`score − (len − done) > bound`).
    limits: [V; 2],
}

impl<'a, 't, V: Lanes4, C: ChunkColumns<V>> Chunk<'a, 't, V, C> {
    #[inline(always)]
    fn new(lanes: &'a [Lane<'t>], cols: C) -> Self {
        let slot = |s: usize| lanes.get(s).unwrap_or(&lanes[0]);
        let mut chunk = Self {
            lanes,
            texts: std::array::from_fn(|s| slot(s).text),
            pres: std::array::from_fn(|s| slot(s).pre),
            cols,
            scores: halves(|s| slot(s).row.score as u64),
            highs: [V::splat(0); 2],
            lens: halves(|s| slot(s).text.len() as u64),
            limits: halves(|s| {
                let bound = lanes.get(s).map_or(i64::MIN, |lane| lane.row.bound as i64);
                bound.saturating_add(slot(s).text.len() as i64) as u64
            }),
        };
        chunk.set_highs(0);
        chunk
    }

    /// The lanes still running at column `j`.
    #[inline(always)]
    fn set_highs(&mut self, j: usize) {
        let lanes = self.lanes;
        self.highs = halves(|s| match lanes.get(s) {
            Some(lane) if j < lane.text.len() => lane.high(),
            _ => 0,
        });
    }

    /// The lanes of half `h` that are unfinished after `done` columns and
    /// still within reach of their bounds, as a mask.
    #[inline(always)]
    fn live(&self, h: usize, done: V) -> V {
        let out_of_reach = self.scores[h].add(done).gt(self.limits[h]);
        self.lens[h].gt(done).and(out_of_reach.not())
    }

    /// Advance every slot through column `j`, whose chars are `chars`;
    /// returns whether the chunk goes on.
    #[inline(always)]
    fn column(&mut self, j: usize, chars: &[char; CHUNK_LANES]) -> bool {
        // Both halves written out: a loop over them keeps the column state
        // in memory, indexed, instead of in registers.
        let deltas = [
            self.cols.step(0, chars, &self.pres, self.highs[0]),
            self.cols.step(1, chars, &self.pres, self.highs[1]),
        ];
        self.scores = [self.scores[0].add(deltas[0]), self.scores[1].add(deltas[1])];
        if j % 4 != 3 {
            return true;
        }
        let done = V::splat(j as u64 + 1);
        self.live(0, done).or(self.live(1, done)).any()
    }

    /// Scan the chunk and answer its lanes into `out`.
    #[inline(always)]
    fn scan(mut self, out: &mut [Option<usize>], tally: &mut LaneTally) {
        let n_min = self.lanes[0].text.len();
        let n_max = self.lanes[self.lanes.len() - 1].text.len();
        let mut chars = ['\0'; CHUNK_LANES];
        let mut j = 0;
        let mut on = true;
        // Every lane is running: no text can end under the gather.
        while on && j < n_min {
            for (c, text) in chars.iter_mut().zip(&self.texts) {
                *c = text[j];
            }
            on = self.column(j, &chars);
            j += 1;
        }
        // The ragged tail: lanes end one by one, in slot order.
        while on && j < n_max {
            self.set_highs(j);
            for (c, text) in chars.iter_mut().zip(&self.texts) {
                *c = text.get(j).copied().unwrap_or_default();
            }
            on = self.column(j, &chars);
            j += 1;
        }
        let (stop, scores) = (j, [self.scores[0].to_lanes(), self.scores[1].to_lanes()]);
        for (s, lane) in self.lanes.iter().enumerate() {
            let len = lane.text.len();
            let row = Row { score: scores[s / 4][s % 4] as isize, ..lane.row };
            let answer = if len <= stop { row.answer() } else { None };
            tally.columns_offered += len as u64;
            tally.columns_scanned += len.min(stop) as u64;
            tally.early_exits += u64::from(answer.is_none());
            out[lane.out_idx as usize] = answer;
        }
    }
}

/// Word lanes: windows of ≤ 64 query rows, each lane's equality word read
/// from its own first row on by `eq_at(char, pre)`.
struct WordColumns<'f, V, F> {
    eq_at: &'f F,
    pv: [V; 2],
    mv: [V; 2],
}

impl<V: Lanes4, F: Fn(char, u32) -> u64> ChunkColumns<V> for WordColumns<'_, V, F> {
    #[inline(always)]
    fn step(
        &mut self,
        h: usize,
        chars: &[char; CHUNK_LANES],
        pres: &[u32; CHUNK_LANES],
        high: V,
    ) -> V {
        let mut eq = [0u64; 4];
        for (i, eq) in eq.iter_mut().enumerate() {
            *eq = (self.eq_at)(chars[4 * h + i], pres[4 * h + i]);
        }
        word_step(&mut self.pv[h], &mut self.mv[h], V::from_lanes(eq), high)
    }
}

/// Blocked lanes: the whole query of 2 to [`BLOCKED_MAX_W`] blocks, the
/// column state the scalar scan keeps in vectors inlined into fixed arrays.
struct BlockedColumns<'p, V> {
    peq: &'p PeqBlocks,
    pv: [[V; BLOCKED_MAX_W]; 2],
    mv: [[V; BLOCKED_MAX_W]; 2],
}

impl<V: Lanes4> ChunkColumns<V> for BlockedColumns<'_, V> {
    #[inline(always)]
    fn step(
        &mut self,
        h: usize,
        chars: &[char; CHUNK_LANES],
        _: &[u32; CHUNK_LANES],
        high: V,
    ) -> V {
        let blocks = &self.peq.blocks[..];
        let c = [chars[4 * h], chars[4 * h + 1], chars[4 * h + 2], chars[4 * h + 3]];
        let eq_of = |k: usize| {
            let block = &blocks[k];
            V::from_lanes([block.get(c[0]), block.get(c[1]), block.get(c[2]), block.get(c[3])])
        };
        let w = blocks.len();
        blocked_step(&mut self.pv[h][..w], &mut self.mv[h][..w], eq_of, high)
    }
}

/// Sorts a batch's lanes of one kind by text length — lanes that end
/// together share a chunk — and runs them chunk by chunk over fresh column
/// state.
#[inline(always)]
fn scan_lanes<V: Lanes4, C: ChunkColumns<V>>(
    lanes: &mut [Lane<'_>],
    out: &mut [Option<usize>],
    tally: &mut LaneTally,
    fresh: impl Fn() -> C,
) {
    lanes.sort_unstable_by_key(|lane| lane.text.len());
    for chunk in lanes.chunks(CHUNK_LANES) {
        Chunk::new(chunk, fresh()).scan(out, tally);
    }
}

/// Every lane of one batch on the widest instance the machine has, chosen
/// per batch (the detection is a cached load).
fn dispatch_lanes(
    kind: &PreparedKind,
    word_lanes: &mut [Lane<'_>],
    blocked_lanes: &mut [Lane<'_>],
    out: &mut [Option<usize>],
) -> LaneTally {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on the line above.
        return unsafe { avx2::run_lanes(kind, word_lanes, blocked_lanes, out) };
    }
    run_lanes::<[u64; 4]>(kind, word_lanes, blocked_lanes, out)
}

/// Every lane of one batch, on the instance `V`: the single function the
/// AVX2 and portable paths both are.
#[inline(always)]
fn run_lanes<V: Lanes4>(
    kind: &PreparedKind,
    word_lanes: &mut [Lane<'_>],
    blocked_lanes: &mut [Lane<'_>],
    out: &mut [Option<usize>],
) -> LaneTally {
    let mut tally = LaneTally::default();
    let (pv, mv) = (V::splat(!0), V::splat(0));
    match kind {
        PreparedKind::Word(peq) => {
            let eq_at = |c, pre: u32| peq.get(c) >> pre;
            let fresh = || WordColumns { eq_at: &eq_at, pv: [pv; 2], mv: [mv; 2] };
            scan_lanes(word_lanes, out, &mut tally, fresh);
        }
        PreparedKind::Blocked(peq) => {
            let eq_at = |c, pre: u32| peq.window(c, pre as usize);
            let fresh = || WordColumns { eq_at: &eq_at, pv: [pv; 2], mv: [mv; 2] };
            scan_lanes(word_lanes, out, &mut tally, fresh);
            let fresh = || BlockedColumns {
                peq,
                pv: [[pv; BLOCKED_MAX_W]; 2],
                mv: [[mv; BLOCKED_MAX_W]; 2],
            };
            scan_lanes(blocked_lanes, out, &mut tally, fresh);
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzydedup_metrics::{scoped, Tally};
    use proptest::prelude::*;

    /// Levenshtein by the two-row DP, `O(|a|·|b|)`: the oracle the unit
    /// tests hold the Myers kernels to.
    fn levenshtein_dp(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + usize::from(ca != cb)).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    /// What a bounded kernel must answer: the DP's distance if it is at most
    /// `bound`.
    fn levenshtein_dp_within(a: &str, b: &str, bound: usize) -> Option<usize> {
        Some(levenshtein_dp(a, b)).filter(|&d| d <= bound)
    }

    #[test]
    fn classic_examples() {
        assert_eq!(myers("kitten", "sitting"), 3);
        assert_eq!(myers("flaw", "lawn"), 2);
        assert_eq!(myers("gumbo", "gambol"), 2);
        assert_eq!(myers("", ""), 0);
        assert_eq!(myers("a", ""), 1);
        assert_eq!(myers("", "a"), 1);
        assert_eq!(myers("same", "same"), 0);
    }

    #[test]
    fn unicode_chars_count_once() {
        assert_eq!(myers("café", "cafe"), 1);
        assert_eq!(myers("日本語", "日本"), 1);
        assert_eq!(myers("αβγδ", "αβxδ"), 1);
    }

    #[test]
    fn exact_word_boundary_lengths() {
        // Pattern lengths 63, 64, 65 straddle the word/blocked dispatch.
        for m in [1usize, 2, 63, 64, 65, 128, 129, 200] {
            let a: String = (0..m).map(|i| (b'a' + (i % 23) as u8) as char).collect();
            let mut b = a.clone();
            b.push('!');
            let b = b.replace('c', "k");
            assert_eq!(myers(&a, &b), levenshtein_dp(&a, &b), "m={m}");
            assert_eq!(myers(&a, &a), 0, "m={m}");
        }
    }

    #[test]
    fn blocked_path_matches_dp_on_long_strings() {
        let a = "the quick brown fox jumps over the lazy dog, then naps in the warm afternoon sun";
        let b = "the quick brown cat jumps over the lazy dog, then naps in a warm afternoon sun!";
        assert!(a.chars().count() > 64);
        assert_eq!(myers(a, b), levenshtein_dp(a, b));
    }

    #[test]
    fn bounded_agrees_with_the_dp_both_sides() {
        let pairs = [
            ("kitten", "sitting"),
            ("the doors la woman", "doors la woman"),
            ("abc", "xyz"),
            ("", "abc"),
            ("same", "same"),
            ("microsoft corp", "microsft corporation"),
            // Rejected on the length gap alone, whichever side is longer.
            ("ab", "abcdefgh"),
            ("abcdefgh", "ab"),
        ];
        for (a, b) in pairs {
            let exact = levenshtein_dp(a, b);
            for bound in 0..=exact + 2 {
                assert_eq!(
                    myers_bounded(a, b, bound),
                    levenshtein_dp_within(a, b, bound),
                    "{a:?} vs {b:?} bound {bound}"
                );
            }
        }
    }

    #[test]
    fn bounded_long_strings() {
        let a: String = (0..150).map(|i| (b'a' + (i % 17) as u8) as char).collect();
        let mut b: Vec<char> = a.chars().collect();
        b[10] = 'z';
        b[90] = 'z';
        let b: String = b.into_iter().collect();
        assert_eq!(myers_bounded(&a, &b, 2), Some(2));
        assert_eq!(myers_bounded(&a, &b, 1), None);
    }

    /// The AVX2 instance, where the machine has it.
    fn avx2_runner() -> Option<RunLanes> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Some(|kind, word_lanes, blocked_lanes, out| {
                // SAFETY: this closure is only returned once AVX2 is detected.
                unsafe { avx2::run_lanes(kind, word_lanes, blocked_lanes, out) }
            });
        }
        None
    }

    /// The shipped dispatch, the portable instance, and the AVX2 instance
    /// where detected (a skip line where not, so a green run there is not
    /// read as having tested it).
    fn lane_runners() -> Vec<(&'static str, RunLanes)> {
        let mut runners: Vec<(&'static str, RunLanes)> =
            vec![("dispatch", dispatch_lanes), ("portable", run_lanes::<[u64; 4]>)];
        match avx2_runner() {
            Some(run) => runners.push(("avx2", run)),
            None => eprintln!("skipped: AVX2 not detected, its lanes are not tested here"),
        }
        runners
    }

    /// What a batch must count as the scalar entry counts it: the
    /// `edit_kernel` section. `verify_batch.columns_{offered, scanned}` are
    /// left out on purpose — only the chunk kernel has columns to report.
    fn kernel_counts(tally: &Tally) -> [u64; 4] {
        [
            Counter::EdKernelWord,
            Counter::EdKernelBlocked,
            Counter::EdKernelBounded,
            Counter::EdKernelEarlyExit,
        ]
        .map(|counter| tally.get(counter))
    }

    type BoundOf = fn(usize, usize) -> usize;

    /// Per-candidate bounds from the true distance `d` and the longer
    /// side's length `n`: zero, both sides of `d`, mid-way, the length (no
    /// pair is farther apart), and the largest `usize`.
    const BOUNDS: [(&str, BoundOf); 8] = [
        ("0", |_, _| 0),
        ("d-2", |d, _| d.saturating_sub(2)),
        ("d-1", |d, _| d.saturating_sub(1)),
        ("d/2", |d, _| d / 2),
        ("d", |d, _| d),
        ("d+1", |d, _| d + 1),
        ("n", |_, n| n),
        ("MAX", |_, _| usize::MAX),
    ];

    /// Every rung held to the DP oracles, not to another fast path: for one
    /// query and its candidates, the stock kernel, the prepared scalar entry
    /// and the prepared batch — re-chunked at `batch_sizes`, so ragged tails,
    /// unfilled slots and second chunks are covered, and with its lanes run
    /// by the dispatch, by the portable instance and by the AVX2 instance
    /// where detected — must all answer what `levenshtein_dp` /
    /// `levenshtein_dp_within` answer, at each of [`BOUNDS`], and every batch
    /// must count exactly what the scalar entry counts.
    fn assert_rungs_match_oracle(query: &str, texts: &[String], batch_sizes: &[usize]) {
        let qc: Vec<char> = query.chars().collect();
        let tcs: Vec<Vec<char>> = texts.iter().map(|t| t.chars().collect()).collect();
        let mut scalar = PreparedPattern::new(qc.clone());
        let mut batched = PreparedPattern::new(qc.clone());
        let exact: Vec<usize> = texts.iter().map(|t| levenshtein_dp(query, t)).collect();
        for (tc, &d) in tcs.iter().zip(&exact) {
            assert_eq!(myers_chars(&qc, tc), d, "stock {query:?} vs {tc:?}");
            assert_eq!(scalar.distance(tc), d, "prepared {query:?} vs {tc:?}");
        }
        let runners = lane_runners();
        for (bound_name, bound_of) in BOUNDS {
            let requests: Vec<(&[char], usize)> = tcs
                .iter()
                .zip(&exact)
                .map(|(t, &d)| (t.as_slice(), bound_of(d, qc.len().max(t.len()))))
                .collect();
            let want: Vec<Option<usize>> = (requests.iter().zip(&exact))
                .map(|(&(_, bound), &d)| Some(d).filter(|&d| d <= bound))
                .collect();
            let stock: Vec<_> =
                requests.iter().map(|&(t, bound)| myers_bounded_chars(&qc, t, bound)).collect();
            assert_eq!(stock, want, "stock {query:?} bound {bound_name}");
            let (got, scalar_tally) = scoped(|| {
                requests.iter().map(|&(t, bound)| scalar.bounded(t, bound)).collect::<Vec<_>>()
            });
            assert_eq!(got, want, "scalar {query:?} bound {bound_name}");
            for &size in batch_sizes {
                let mut columns = None;
                for &(runner, run) in &runners {
                    let what = format!("{runner} batch of {size}: {query:?} bound {bound_name}");
                    let (got, tally) = scoped(|| {
                        let (mut got, mut out) = (Vec::new(), Vec::new());
                        for chunk in requests.chunks(size) {
                            batched.bounded_batch_on(chunk, &mut out, run);
                            got.extend_from_slice(&out);
                        }
                        got
                    });
                    assert_eq!(got, want, "{what}");
                    assert_eq!(kernel_counts(&tally), kernel_counts(&scalar_tally), "{what}");
                    // Every instance stops every chunk at the same column.
                    let (offered, scanned) = (
                        tally.get(Counter::VerifyColumnsOffered),
                        tally.get(Counter::VerifyColumnsScanned),
                    );
                    assert!(scanned <= offered, "{what}");
                    assert_eq!(
                        *columns.get_or_insert((offered, scanned)),
                        (offered, scanned),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_inputs_match_the_oracle_on_every_rung() {
        let queries = [
            "",
            "a",
            "the doors",
            "microsoft corporation",
            // Exactly 64 chars (the word edge), then > 64 (blocked kind).
            &"x".repeat(64),
            &format!("a{}b", "y".repeat(78)),
            // Blocked query whose candidates share long affixes: a window
            // of ≤ 64 chars joins the word lanes, a wider one falls back.
            &"prefix shared middle differs suffix shared tail tail tail tail tail!".repeat(2),
        ];
        let texts: Vec<String> = vec![
            String::new(),
            "a".into(),
            "doors".into(),
            "the doors la woman".into(),
            "microsft corp".into(),
            "日本語 café".into(),
            "x".repeat(64),
            "x".repeat(90),
            format!("a{}b", "y".repeat(78)),
            format!("c{}d", "y".repeat(78)),
            "completely unrelated".into(),
            "prefix shared middle DIFFERS suffix shared tail tail tail tail tail!".repeat(2),
            "prefix shared middle differs suffix shared tail tail tail tail tail?".repeat(2),
            "prefix shared MUDDLE differs suffix shared tail tail tail tail tail!".to_owned()
                + "prefix shared middle differs suffix shared tail tail tail tail tail!",
        ];
        for query in queries {
            assert_rungs_match_oracle(query, &texts, &[1, 3, 8, 32]);
        }
    }

    /// A query of `m` chars with no long repeats, a few of them outside
    /// ASCII (the spill lists of the equality tables).
    fn assorted_query(m: usize) -> Vec<char> {
        const ALPHABET: &[char] = &[
            'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'k', 'l', 'm', 'n', 'o', 'p', 'r', 's',
            't', 'u', 'w', ' ', '1', '7', 'é', '日', 'λ',
        ];
        (0..m).map(|i| ALPHABET[(i * i * 31 + i * 7 + i / 5) % ALPHABET.len()]).collect()
    }

    /// Candidate `i` of 17 of one shape, each shape one way through the
    /// routing and the 17 of assorted lengths, so a sorted chunk's shortest
    /// and longest lane differ and the ragged tail runs.
    fn assorted_candidate(query: &[char], shape: usize, i: usize) -> String {
        let m = query.len();
        let mut t = query.to_vec();
        match shape {
            // Both ends changed: nothing strips (the whole-query lanes).
            0 => {
                t[0] = 'Ω';
                t[m - 1] = '語';
                t.drain(m / 2..m / 2 + i);
            }
            // Edits around the centre only: long shared affixes (the shifted
            // word lanes; the window lanes of a blocked query). Candidate 0
            // only deletes, so all of its text strips away: an empty lane.
            1 if i == 0 => drop(t.drain(m / 2..m / 2 + 3)),
            1 => {
                t[m / 2] = 'Ω';
                t.splice(m / 2..m / 2, std::iter::repeat_n('語', i));
            }
            // A shared prefix of up to 20 chars and no shared suffix: of a
            // blocked query more than 64 rows are left (the unstripped lane).
            _ => {
                t[20.min(m / 4)] = 'Ω';
                t[m - 1] = '語';
                t.drain(m / 2..m / 2 + i);
            }
        }
        t.into_iter().collect()
    }

    #[test]
    fn chunk_occupancies_and_ragged_lengths_match_the_oracle_on_every_instance() {
        // A word query, then blocked queries of 2, 3, 4 and (past the lanes)
        // 5 blocks; per shape 17 candidates batched 1 to 17 at a time: every
        // chunk occupancy from a lone lane through a full chunk to a second
        // chunk of one.
        let sizes: Vec<usize> = (1..=17).collect();
        for m in [40, 100, 150, 250, 300] {
            let query = assorted_query(m);
            for shape in 0..3 {
                let texts: Vec<String> =
                    (0..17).map(|i| assorted_candidate(&query, shape, i)).collect();
                assert_rungs_match_oracle(&query.iter().collect::<String>(), &texts, &sizes);
            }
        }
    }

    #[test]
    fn a_multi_word_window_rides_an_unstripped_blocked_lane() {
        // A 2-block query and a candidate that shares its first 20 chars
        // with > 64 rows left: no view into the prepared table. The scalar
        // entry re-strips through the stock kernel; a batch scans the whole
        // text in a blocked lane, and must answer and count the same.
        let query = assorted_query(100);
        let text: Vec<char> = assorted_candidate(&query, 2, 5).chars().collect();
        let mut prepared = PreparedPattern::new(query.clone());
        assert!(matches!(prepared.route(&text, usize::MAX, false), Route::Stock));
        assert!(matches!(
            prepared.route(&text, usize::MAX, true),
            Route::Scan { pre: 0, rows: 100, text: unstripped } if unstripped.len() == text.len()
        ));
        let (q, t): (String, String) = (query.iter().collect(), text.iter().collect());
        let (d, gap) = (levenshtein_dp(&q, &t), query.len() - text.len());
        for bound in [0, gap - 1, gap, d - 1, d, d + 1, 100] {
            let want = levenshtein_dp_within(&q, &t, bound);
            let (got, scalar_tally) = scoped(|| prepared.bounded(&text, bound));
            assert_eq!(got, want, "scalar, bound {bound}");
            assert_eq!(scalar_tally.get(Counter::EdKernelBounded), 1);
            assert_eq!(scalar_tally.get(Counter::EdKernelEarlyExit), u64::from(want.is_none()));
            for (runner, run) in lane_runners() {
                let mut out = Vec::new();
                let ((), tally) =
                    scoped(|| prepared.bounded_batch_on(&[(&text, bound)], &mut out, run));
                assert_eq!(out, [want], "{runner}, bound {bound}");
                assert_eq!(kernel_counts(&tally), kernel_counts(&scalar_tally), "{runner} {bound}");
                // What the lane is offered is the text it rides over — all of
                // it, unless the length gap alone rejected the candidate — and
                // a bound the first differing column already rules out (char
                // 20) stops the scan at the next reach test.
                let offered = if bound < gap { 0 } else { text.len() as u64 };
                assert_eq!(tally.get(Counter::VerifyColumnsOffered), offered, "{runner} {bound}");
                let scanned = tally.get(Counter::VerifyColumnsScanned);
                match bound {
                    _ if bound >= d => assert_eq!(scanned, offered, "{runner} {bound}"),
                    _ if bound == gap => assert_eq!(scanned, 24, "{runner} {bound}"),
                    _ => assert!(scanned <= offered, "{runner} {bound}"),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random Unicode (one `.` draw in sixteen is from all planes)
        /// queries of 1…300 chars — word, ≤ 4-block and > 4-block — against
        /// an unrelated text and near-duplicates of three shapes: edits
        /// clustered within 40 chars (long shared affixes: the shifted word
        /// path and the ≤ 64-char window of a blocked table), edits spread
        /// over the text (a multi-word window: the stock fallback), and
        /// both ends changed as well (no affix: the whole-query lanes).
        #[test]
        fn every_rung_matches_the_dp_oracle(
            query in ".{1,300}",
            unrelated in ".{0,300}",
            shapes in prop::collection::vec(
                (0usize..3, 0usize..300, prop::collection::vec((0usize..40, ".", 0usize..3), 0..5)),
                1..36,
            ),
        ) {
            let qc: Vec<char> = query.chars().collect();
            let mut texts = vec![unrelated];
            for (shape, center, edits) in &shapes {
                let mut t = qc.clone();
                if *shape == 2 {
                    t[0] = '\u{1F600}';
                    t.push('\u{10FFFF}');
                }
                for (offset, c, kind) in edits {
                    let at = (center + offset * if *shape == 0 { 1 } else { 7 }) % t.len().max(1);
                    match kind {
                        0 if !t.is_empty() => t[at] = c.chars().next().unwrap(),
                        1 if !t.is_empty() => drop(t.remove(at)),
                        _ => t.insert(at, c.chars().next().unwrap()),
                    }
                }
                texts.push(t.into_iter().collect());
            }
            assert_rungs_match_oracle(&query, &texts, &[1, 3, 8, 32]);
        }
    }

    #[test]
    fn huge_bounds_reject_nothing() {
        // `bound as isize` wrapped negative above `isize::MAX`: the early
        // exit fired on the first column. ≤ 64 chars, ≤ 4 blocks and > 4
        // blocks, differing at both ends so nothing strips.
        for m in [6usize, 80, 300] {
            let (a, b) = (format!("a{}b", "x".repeat(m)), format!("c{}d", "x".repeat(m)));
            let want = Some(levenshtein_dp(&a, &b));
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            for bound in [isize::MAX as usize, isize::MAX as usize + 1, usize::MAX] {
                assert_eq!(myers_bounded_chars(&a, &b, bound), want, "stock m={m} {bound:#x}");
                let mut prepared = PreparedPattern::new(a.clone());
                assert_eq!(prepared.bounded(&b, bound), want, "scalar m={m} {bound:#x}");
                let mut out = Vec::new();
                prepared.bounded_batch(&[(&b, bound)], &mut out);
                assert_eq!(out, [want], "batch m={m} {bound:#x}");
            }
        }
        assert_eq!(myers_bounded("kitten", "sitting", usize::MAX), Some(3));
    }

    #[test]
    fn prepared_word_path_does_not_rebuild_tables() {
        // The shifted single-word path must take the bounded rung exactly
        // once per candidate and never the unbounded word rung.
        let query: Vec<char> = "golden dragon palace".chars().collect();
        let mut prepared = PreparedPattern::new(query);
        let ((), delta) = scoped(|| {
            for t in ["golden dragon palce", "golden dragon", "palace dragon golden"] {
                let tc: Vec<char> = t.chars().collect();
                prepared.bounded(&tc, 30);
            }
        });
        assert_eq!(delta.get(Counter::EdKernelBounded), 3);
        assert_eq!(delta.get(Counter::EdKernelWord), 0);
    }

    #[test]
    fn records_kernel_path_counters() {
        // Differences at both ends keep the pattern > 64 chars after
        // affix stripping, forcing the blocked path.
        let long_a: String = format!("a{}b", "x".repeat(78));
        let long_b: String = format!("c{}d", "x".repeat(78));
        let ((), delta) = scoped(|| {
            myers("short", "strings");
            myers(&long_a, &long_b);
            myers_bounded("completely", "different!", 1);
        });
        assert_eq!(delta.get(Counter::EdKernelWord), 1);
        assert_eq!(delta.get(Counter::EdKernelBlocked), 1);
        assert_eq!(delta.get(Counter::EdKernelBounded), 1);
        assert_eq!(delta.get(Counter::EdKernelEarlyExit), 1);
    }
}
