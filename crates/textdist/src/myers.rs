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
//! The recurrence is written once per width — [`word_step`] for a pattern
//! of ≤ 64 rows, [`blocked_step`] (over [`advance_block`]) for more — and
//! every rung of the kernel-selection ladder (`DESIGN.md` §7.2) is a
//! driver over those two:
//!
//! * one **scalar scan** per width ([`word_scan`], [`blocked_scan`]),
//!   parameterised by where a text char's equality word comes from (a
//!   fresh table; a prepared table read from the shared prefix on;
//!   [`PeqBlocks::window`]) and by `const BOUNDED`, which compiles the
//!   k-bounded early exit in or out (abandon as soon as the running
//!   bottom-row score can no longer descend to `k`);
//! * one **lock-step driver** ([`lockstep`]), generic over the lane's
//!   column state, which advances several candidates of one prepared query
//!   a column at a time so their dependency chains overlap — same steps,
//!   same exit test, same final check as the scalar scans beside it.
//!
//! All entry points first strip the common prefix and suffix (equal
//! flanks cannot change the distance, and near-duplicate pairs — the
//! dominant verification workload — share most of both), then dispatch on
//! the *stripped* pattern length: [`myers_chars`] / [`myers_bounded_chars`]
//! are the two entries of the one stock kernel (table built per pair),
//! `PreparedPattern` is the compiled query the verification loop holds,
//! and [`crate::edit::levenshtein`] / [`crate::edit::levenshtein_bounded`]
//! are the public edit-distance API that routes here.
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

/// Pattern-equality bitmasks for a blocked (> 64-char) pattern: one word
/// per 64-row block, `w` words per character.
struct PeqBlocks {
    /// Pattern length in chars.
    m: usize,
    w: usize,
    /// `128 × w` words, ASCII direct-indexed: `ascii[c*w + k]`.
    ascii: Vec<u64>,
    spill: Vec<(char, Vec<u64>)>,
    zero: Vec<u64>,
}

impl PeqBlocks {
    fn build(pattern: &[char]) -> Self {
        let w = pattern.len().div_ceil(64);
        let mut ascii = vec![0u64; 128 * w];
        let mut spill: Vec<(char, Vec<u64>)> = Vec::new();
        for (i, &c) in pattern.iter().enumerate() {
            let (block, bit) = (i / 64, 1u64 << (i % 64));
            if (c as u32) < 128 {
                ascii[c as usize * w + block] |= bit;
            } else if let Some(entry) = spill.iter_mut().find(|(s, _)| *s == c) {
                entry.1[block] |= bit;
            } else {
                let mut masks = vec![0u64; w];
                masks[block] |= bit;
                spill.push((c, masks));
            }
        }
        Self { m: pattern.len(), w, ascii, spill, zero: vec![0u64; w] }
    }

    /// Bottom-row bit of the last (possibly partial) block.
    #[inline]
    fn last_high(&self) -> u64 {
        1u64 << ((self.m - 1) % 64)
    }

    /// The `w` equality words of `c` (all-zero slice for absent chars).
    #[inline]
    fn get(&self, c: char) -> &[u64] {
        if (c as u32) < 128 {
            &self.ascii[c as usize * self.w..(c as usize + 1) * self.w]
        } else {
            self.spill.iter().find(|(s, _)| *s == c).map_or(&self.zero[..], |(_, m)| m)
        }
    }

    /// 64 consecutive equality bits of `c` starting at pattern position
    /// `pre` — the single-word view of a ≤ 64-char window into a blocked
    /// table. Bits past the window are garbage exactly as the word
    /// kernel's bits above `m − 1` are (see [`word_step`]).
    #[inline]
    fn window(&self, c: char, pre: usize) -> u64 {
        let words = self.get(c);
        let (blk, off) = (pre / 64, pre % 64);
        let lo = words[blk] >> off;
        if off == 0 || blk + 1 == self.w {
            lo
        } else {
            lo | (words[blk + 1] << (64 - off))
        }
    }
}

/// One column transition of the single-word recurrence: [`advance_block`]
/// specialized to `hin = +1` (the top boundary row `D[0][j] = j`), which
/// keeps the state in registers with no carry branches. Returns the
/// bottom-row delta `D[m][j] − D[m][j−1]` read at bit `high`. Bits of `eq`
/// above `high` may hold anything: carries only travel upward, so they
/// never reach the watched bit.
#[inline(always)]
fn word_step(pv: &mut u64, mv: &mut u64, eq: u64, high: u64) -> isize {
    let xv = eq | *mv;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let mut ph = *mv | !(xh | *pv);
    let mut mh = *pv & xh;
    let delta = isize::from(ph & high != 0) - isize::from(mh & high != 0);
    ph = (ph << 1) | 1;
    mh <<= 1;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    delta
}

/// One column transition of one 64-row block (Hyyrö's formulation of the
/// Myers recurrence, with explicit horizontal carries between blocks).
///
/// `hin`/`hout` are the horizontal deltas entering the block's top row
/// and leaving its bottom row (`high` selects the bottom row's bit; for a
/// partial last block that is bit `m%64 − 1`, and garbage above it never
/// propagates downward — carries in the embedded addition only travel
/// toward higher bits).
#[inline]
fn advance_block(pv: &mut u64, mv: &mut u64, mut eq: u64, hin: i32, high: u64) -> i32 {
    let xv = eq | *mv;
    if hin < 0 {
        eq |= 1;
    }
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let mut ph = *mv | !(xh | *pv);
    let mut mh = *pv & xh;
    let mut hout = 0i32;
    if ph & high != 0 {
        hout += 1;
    }
    if mh & high != 0 {
        hout -= 1;
    }
    ph <<= 1;
    mh <<= 1;
    match hin.cmp(&0) {
        std::cmp::Ordering::Less => mh |= 1,
        std::cmp::Ordering::Greater => ph |= 1,
        std::cmp::Ordering::Equal => {}
    }
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
    hout
}

/// One column transition of a blocked pattern: the blocks top to bottom,
/// each handing its horizontal delta to the next. `pv`, `mv` and `eqs`
/// hold one word per block; returns the bottom-row delta.
#[inline(always)]
fn blocked_step(pv: &mut [u64], mv: &mut [u64], eqs: &[u64], last_high: u64) -> isize {
    let last = pv.len() - 1;
    let mut hin = 1i32;
    for (k, ((pv, mv), &eq)) in pv.iter_mut().zip(mv.iter_mut()).zip(eqs).enumerate() {
        let high = if k == last { last_high } else { 1u64 << 63 };
        hin = advance_block(pv, mv, eq, hin, high);
    }
    hin as isize
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
        row.score += word_step(&mut pv, &mut mv, eq_at(c), high);
        if BOUNDED && row.out_of_reach(n - j - 1) {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    row.answer()
}

/// The scalar blocked scan, `⌈m/64⌉` words per column: the only path for
/// patterns the lock-step lanes do not hold (beyond [`BLOCKED_MAX_W`]
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
    debug_assert!(peq.w >= 2);
    if !BOUNDED {
        incr(Counter::EdKernelBlocked, 1);
    }
    pv.clear();
    pv.resize(peq.w, !0u64);
    mv.clear();
    mv.resize(peq.w, 0);
    let last_high = peq.last_high();
    let mut row = Row::new(peq.m, bound);
    let n = text.len();
    for (j, &c) in text.iter().enumerate() {
        row.score += blocked_step(pv, mv, peq.get(c), last_high);
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
/// reuse their table whole when no affix is shared; a shared affix that
/// leaves a multi-word window falls back to the stock kernel, where
/// stripping shrinks the scan enough to dwarf the rebuild.
///
/// `'t` is the lifetime of the candidate texts: batch requests outlive the
/// pattern, so the lock-step lanes that borrow them are buffers the
/// pattern owns and reuses across batches.
pub(crate) struct PreparedPattern<'t> {
    query: Vec<char>,
    kind: PreparedKind,
    /// Scalar blocked-scan column state, reused across candidates.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Lock-step lanes, refilled per batch.
    lanes: Vec<Lane<'t, WordCols>>,
    blocked_lanes: Vec<Lane<'t, BlockedCols>>,
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
    /// A shared affix leaves a multi-word window of a blocked table: the
    /// stock kernel (which counts itself).
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
            lanes: Vec::new(),
            blocked_lanes: Vec::new(),
        }
    }

    /// The compiled query.
    pub fn query(&self) -> &[char] {
        &self.query
    }

    fn route<'x>(&self, text: &'x [char], bound: usize) -> Route<'x> {
        let (pre, suf) = common_affixes(&self.query, text);
        let rows = self.query.len() - pre - suf;
        if matches!(self.kind, PreparedKind::Blocked(_)) && (pre != 0 || suf != 0) && rows > 64 {
            return Route::Stock;
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
        let route = self.route(text, bound);
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
    /// results, same metrics totals — but candidates that reach a scan are
    /// verified in *lock-step* ([`lockstep`]): their column states are
    /// laid out per lane and advanced one text column at a time across
    /// several candidates, so the serial dependency chain of one Myers
    /// recurrence overlaps with its neighbors'. Everything a scan does not
    /// decide, and blocked queries too wide for the lanes, is answered as
    /// the scalar entry answers it.
    pub fn bounded_batch(
        &mut self,
        requests: &[(&'t [char], usize)],
        out: &mut Vec<Option<usize>>,
    ) {
        out.clear();
        out.resize(requests.len(), None);
        self.lanes.clear();
        self.blocked_lanes.clear();
        let (mut bounded_calls, mut early_exits) = (0u64, 0u64);
        for (i, &(text, bound)) in requests.iter().enumerate() {
            let route = self.route(text, bound);
            bounded_calls += u64::from(!matches!(route, Route::Stock));
            match route {
                Route::Stock => out[i] = myers_bounded_chars(&self.query, text, bound),
                Route::Gap => early_exits += 1,
                Route::Rest(d) => out[i] = Some(d),
                Route::Scan { pre, rows, text } => match &self.kind {
                    PreparedKind::Blocked(peq) if rows > 64 && peq.w > BLOCKED_MAX_W => {
                        out[i] = blocked_scan::<true>(peq, text, bound, &mut self.pv, &mut self.mv);
                    }
                    PreparedKind::Blocked(_) if rows > 64 => {
                        let cols = BlockedCols { pv: [!0; BLOCKED_MAX_W], mv: [0; BLOCKED_MAX_W] };
                        self.blocked_lanes.push(Lane::new(text, i, rows, bound, cols));
                    }
                    _ => {
                        let cols =
                            WordCols { pre: pre as u32, high: 1 << (rows - 1), pv: !0, mv: 0 };
                        self.lanes.push(Lane::new(text, i, rows, bound, cols));
                    }
                },
            }
        }
        incr(Counter::EdKernelBounded, bounded_calls);
        early_exits += match &self.kind {
            PreparedKind::Word(peq) => lockstep(&mut self.lanes, BATCH_LANES, out, |s, c| {
                word_step(&mut s.pv, &mut s.mv, peq.get(c) >> s.pre, s.high)
            }),
            PreparedKind::Blocked(peq) => {
                let (w, last_high) = (peq.w, peq.last_high());
                lockstep(&mut self.lanes, BATCH_LANES, out, |s, c| {
                    word_step(&mut s.pv, &mut s.mv, peq.window(c, s.pre as usize), s.high)
                }) + lockstep(&mut self.blocked_lanes, BLOCKED_BATCH_LANES, out, |s, c| {
                    blocked_step(&mut s.pv[..w], &mut s.mv[..w], peq.get(c), last_high)
                })
            }
        };
        incr(Counter::EdKernelEarlyExit, early_exits);
    }
}

/// One candidate of a lock-step chunk: everything a scalar scan keeps in
/// locals, owned per lane so a chunk of lanes can advance together.
struct Lane<'t, S> {
    text: &'t [char],
    out_idx: u32,
    row: Row,
    cols: S,
}

impl<'t, S> Lane<'t, S> {
    fn new(text: &'t [char], out_idx: usize, rows: usize, bound: usize, cols: S) -> Self {
        Self { text, out_idx: out_idx as u32, row: Row::new(rows, bound), cols }
    }
}

/// A word lane's column state: where its window starts in the prepared
/// table, the window's bottom-row bit, and the `Pv`/`Mv` words.
struct WordCols {
    pre: u32,
    high: u64,
    pv: u64,
    mv: u64,
}

/// A blocked lane's column state: the `w`-word `Pv`/`Mv` columns the
/// scalar scan keeps in vectors, inlined into fixed arrays so a chunk of
/// lanes lives in a handful of cache lines.
struct BlockedCols {
    pv: [u64; BLOCKED_MAX_W],
    mv: [u64; BLOCKED_MAX_W],
}

/// Word lanes advanced together per chunk. Wide enough to overlap the
/// Myers recurrence's serial dependency chain across candidates, small
/// enough that a chunk's state stays in L1.
const BATCH_LANES: usize = 8;

/// Widest blocked query (in 64-row blocks) eligible for lock-step; wider
/// queries take the scalar blocked scan. 4 blocks = 256 pattern chars,
/// comfortably past record-string lengths in the evaluation datasets.
const BLOCKED_MAX_W: usize = 4;

/// Blocked lanes advanced together per chunk. Half the word path's width:
/// each lane carries `w ≥ 2` words of column state, so 4 lanes already
/// expose enough independent chains to fill the ALUs.
const BLOCKED_BATCH_LANES: usize = 4;

/// The lock-step driver: lanes are sorted into length buckets so the lanes
/// of a chunk retire together, then each chunk of `width` lanes advances
/// one text column at a time across all its live lanes, `step` applying
/// one column of the lane's recurrence and returning the bottom-row delta.
/// Per lane the transition, the early-exit check and the final answer are
/// the scalar scans' own ([`word_step`] / [`blocked_step`], [`Row`]);
/// returns the number of early exits (the caller aggregates the counter).
fn lockstep<S>(
    lanes: &mut [Lane<'_, S>],
    width: usize,
    out: &mut [Option<usize>],
    step: impl Fn(&mut S, char) -> isize,
) -> u64 {
    lanes.sort_unstable_by_key(|l| l.text.len());
    let mut early_exits = 0u64;
    for chunk in lanes.chunks_mut(width) {
        let mut active = chunk.len();
        let mut j = 0usize;
        while active > 0 {
            let mut i = 0;
            while i < active {
                let lane = &mut chunk[i];
                let n = lane.text.len();
                let answer = if j == n {
                    lane.row.answer()
                } else {
                    lane.row.score += step(&mut lane.cols, lane.text[j]);
                    if !lane.row.out_of_reach(n - j - 1) {
                        i += 1;
                        continue;
                    }
                    early_exits += 1;
                    None
                };
                // Retired: swap a live lane into its slot.
                out[lane.out_idx as usize] = answer;
                active -= 1;
                chunk.swap(i, active);
            }
            j += 1;
        }
    }
    early_exits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::{levenshtein_banded, levenshtein_dp};
    use fuzzydedup_metrics::scoped;
    use proptest::prelude::*;

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
    fn bounded_agrees_with_banded_dp_both_sides() {
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
                    levenshtein_banded(a, b, bound),
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

    /// Every rung held to the DP oracles, not to another fast path: for one
    /// query and its candidates, the stock kernel, the prepared scalar entry
    /// and the prepared batch (re-chunked at 1, 3, 8 and 32, so ragged
    /// tails and refilled lanes are covered) must all answer what
    /// `levenshtein_dp` / `levenshtein_banded` answer, at per-candidate
    /// bounds on both sides of each true distance, and the batch must count
    /// exactly what the scalar entry counts.
    fn assert_rungs_match_oracle(query: &str, texts: &[String]) {
        let qc: Vec<char> = query.chars().collect();
        let tcs: Vec<Vec<char>> = texts.iter().map(|t| t.chars().collect()).collect();
        let mut scalar = PreparedPattern::new(qc.clone());
        let mut batched = PreparedPattern::new(qc.clone());
        let exact: Vec<usize> = texts.iter().map(|t| levenshtein_dp(query, t)).collect();
        for (tc, &d) in tcs.iter().zip(&exact) {
            assert_eq!(myers_chars(&qc, tc), d, "stock {query:?} vs {tc:?}");
            assert_eq!(scalar.distance(tc), d, "prepared {query:?} vs {tc:?}");
        }
        for slack in [isize::MIN, -2, -1, 0, 1, 40] {
            let requests: Vec<(&[char], usize)> = tcs
                .iter()
                .zip(&exact)
                .map(|(t, d)| (t.as_slice(), d.saturating_add_signed(slack)))
                .collect();
            let want: Vec<Option<usize>> = texts
                .iter()
                .zip(&requests)
                .map(|(t, &(_, bound))| levenshtein_banded(query, t, bound))
                .collect();
            let stock: Vec<_> =
                requests.iter().map(|&(t, bound)| myers_bounded_chars(&qc, t, bound)).collect();
            assert_eq!(stock, want, "stock {query:?} slack {slack}");
            let (got, scalar_tally) = scoped(|| {
                requests.iter().map(|&(t, bound)| scalar.bounded(t, bound)).collect::<Vec<_>>()
            });
            assert_eq!(got, want, "scalar {query:?} slack {slack}");
            for chunk_size in [1, 3, 8, 32] {
                let (got, tally) = scoped(|| {
                    let (mut got, mut out) = (Vec::new(), Vec::new());
                    for chunk in requests.chunks(chunk_size) {
                        batched.bounded_batch(chunk, &mut out);
                        got.extend_from_slice(&out);
                    }
                    got
                });
                assert_eq!(got, want, "batch of {chunk_size}: {query:?} slack {slack}");
                assert_eq!(tally, scalar_tally, "batch of {chunk_size}: {query:?} slack {slack}");
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
            assert_rungs_match_oracle(query, &texts);
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
            assert_rungs_match_oracle(&query, &texts);
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
