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
//! All entry points first strip the common prefix and suffix (equal
//! flanks cannot change the distance, and near-duplicate pairs — the
//! dominant verification workload — share most of both), then dispatch on
//! the *stripped* pattern length.
//!
//! Three entry points form the kernel-selection ladder (`DESIGN.md`):
//!
//! * [`myers_chars`] — dispatches to the **single-word** path when the
//!   shorter string fits 64 chars, else the **blocked** multi-word path;
//! * [`myers_bounded_chars`] — the **k-bounded** variant used by
//!   nearest-neighbor candidate verification: abandons the computation as
//!   soon as the distance provably exceeds the cutoff (length gap, or the
//!   running bottom-row score can no longer descend below `k`);
//! * [`crate::edit::levenshtein`] / [`crate::edit::levenshtein_bounded`]
//!   — the public edit-distance API, which routes here.
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
        Self { w, ascii, spill, zero: vec![0u64; w] }
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
    /// table. Bits past the end of the pattern are garbage exactly as the
    /// word kernel's bits above `m − 1` are; callers mask to the window
    /// width.
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

/// Strip the common prefix and suffix of two strings: equal flanks never
/// change the Levenshtein distance, and near-duplicates (the dominant
/// verification workload) share most of both.
fn strip_common<'s>(mut a: &'s [char], mut b: &'s [char]) -> (&'s [char], &'s [char]) {
    let pre = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    a = &a[pre..];
    b = &b[pre..];
    let suf = a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count();
    (&a[..a.len() - suf], &b[..b.len() - suf])
}

/// Single-word Myers: pattern ≤ 64 chars, any text length. Returns the
/// exact Levenshtein distance. The column transition is [`advance_block`]
/// specialized to `hin = +1` (the top boundary row `D[0][j] = j`), which
/// keeps the state in registers with no carry branches.
fn word_distance(pattern: &[char], text: &[char]) -> usize {
    debug_assert!(!pattern.is_empty() && pattern.len() <= 64);
    let m = pattern.len();
    let peq = PeqWord::build(pattern);
    let high = 1u64 << (m - 1);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m as isize;
    for &c in text {
        let eq = peq.get(c);
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        score += isize::from(ph & high != 0);
        score -= isize::from(mh & high != 0);
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score as usize
}

/// Blocked Myers: pattern of any length, `⌈m/64⌉` words per column.
fn blocked_distance(pattern: &[char], text: &[char]) -> usize {
    let m = pattern.len();
    let w = m.div_ceil(64);
    debug_assert!(w >= 2);
    let peq = PeqBlocks::build(pattern);
    // Bottom row of the last (possibly partial) block.
    let last_high = 1u64 << ((m - 1) % 64);
    let mut pv = vec![!0u64; w];
    let mut mv = vec![0u64; w];
    let mut score = m as isize;
    for &c in text {
        let eqs = peq.get(c);
        let mut hin = 1i32;
        for k in 0..w {
            let high = if k + 1 == w { last_high } else { 1u64 << 63 };
            hin = advance_block(&mut pv[k], &mut mv[k], eqs[k], hin, high);
        }
        score += hin as isize;
    }
    score as usize
}

/// Bit-parallel Levenshtein distance over pre-collected char slices.
/// Dispatches to the single-word path when the shorter string fits one
/// machine word, else the blocked multi-word path. Exact for all inputs
/// (equivalence with the reference DP is property-tested).
pub fn myers_chars(a: &[char], b: &[char]) -> usize {
    let (a, b) = strip_common(a, b);
    // Shorter side as the pattern: fewer blocks, and the single-word path
    // applies whenever min(|a|, |b|) ≤ 64 after affix stripping.
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return text.len();
    }
    if pattern.len() <= 64 {
        incr(Counter::EdKernelWord, 1);
        word_distance(pattern, text)
    } else {
        incr(Counter::EdKernelBlocked, 1);
        blocked_distance(pattern, text)
    }
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
    incr(Counter::EdKernelBounded, 1);
    let (a, b) = strip_common(a, b);
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    // The length gap is a lower bound on the distance.
    if text.len() - pattern.len() > bound {
        incr(Counter::EdKernelEarlyExit, 1);
        return None;
    }
    if pattern.is_empty() {
        return (text.len() <= bound).then_some(text.len());
    }
    let n = text.len();
    let m = pattern.len();
    if m <= 64 {
        let peq = PeqWord::build(pattern);
        let high = 1u64 << (m - 1);
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = m as isize;
        for (j, &c) in text.iter().enumerate() {
            let eq = peq.get(c);
            let xv = eq | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            score += isize::from(ph & high != 0);
            score -= isize::from(mh & high != 0);
            ph = (ph << 1) | 1;
            mh <<= 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
            // Each remaining column can lower the score by at most 1.
            if score - (n - j - 1) as isize > bound as isize {
                incr(Counter::EdKernelEarlyExit, 1);
                return None;
            }
        }
        (score as usize <= bound).then_some(score as usize)
    } else {
        let w = m.div_ceil(64);
        let peq = PeqBlocks::build(pattern);
        let last_high = 1u64 << ((m - 1) % 64);
        let mut pv = vec![!0u64; w];
        let mut mv = vec![0u64; w];
        let mut score = m as isize;
        for (j, &c) in text.iter().enumerate() {
            let eqs = peq.get(c);
            let mut hin = 1i32;
            for k in 0..w {
                let high = if k + 1 == w { last_high } else { 1u64 << 63 };
                hin = advance_block(&mut pv[k], &mut mv[k], eqs[k], hin, high);
            }
            score += hin as isize;
            if score - (n - j - 1) as isize > bound as isize {
                incr(Counter::EdKernelEarlyExit, 1);
                return None;
            }
        }
        (score as usize <= bound).then_some(score as usize)
    }
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
/// the single-word path then reuses the table by shifting each mask right
/// by the prefix length and truncating to the stripped width — the affix
/// strip without any per-candidate table rebuild (the standalone bounded
/// kernel re-strips and rebuilds `Peq` from scratch for every candidate).
/// Blocked (> 64-char) queries reuse their table whenever no affix is
/// shared; with shared affixes they fall back to the stock kernel, where
/// stripping shrinks the scan enough to dwarf the rebuild.
///
/// `'t` is the lifetime of the candidate texts: batch requests outlive the
/// pattern, so the lock-step lanes that borrow them are buffers the
/// pattern owns and reuses across batches.
pub(crate) struct PreparedPattern<'t> {
    query: Vec<char>,
    kind: PreparedKind,
    /// Blocked-path column state, reused across candidates.
    pv: Vec<u64>,
    mv: Vec<u64>,
    /// Lock-step lanes, refilled per batch.
    lanes: Vec<BatchLane<'t>>,
    blocked_lanes: Vec<BlockedLane<'t>>,
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

    /// Common prefix/suffix lengths of the query and a candidate text
    /// (prefix first, then suffix over the remainders — the exact
    /// convention of [`strip_common`], so stripped views agree).
    fn affixes(&self, text: &[char]) -> (usize, usize) {
        let q: &[char] = &self.query;
        let pre = q.iter().zip(text.iter()).take_while(|(x, y)| x == y).count();
        let (qr, tr) = (&q[pre..], &text[pre..]);
        let suf = qr.iter().rev().zip(tr.iter().rev()).take_while(|(x, y)| x == y).count();
        (pre, suf)
    }

    /// Exact distance to a candidate (equivalent to
    /// [`myers_chars`]`(query, text)`).
    pub fn distance(&mut self, text: &[char]) -> usize {
        let (pre, suf) = self.affixes(text);
        let sp_len = self.query.len() - pre - suf;
        let st_len = text.len() - pre - suf;
        if sp_len == 0 {
            return st_len;
        }
        let st = &text[pre..text.len() - suf];
        match &self.kind {
            PreparedKind::Word(peq) => {
                incr(Counter::EdKernelWord, 1);
                word_distance_shifted(peq, pre, sp_len, st)
            }
            PreparedKind::Blocked(peq) if pre == 0 && suf == 0 => {
                incr(Counter::EdKernelBlocked, 1);
                blocked_distance_prepared(peq, self.query.len(), st, &mut self.pv, &mut self.mv)
            }
            PreparedKind::Blocked(_) => myers_chars(&self.query, text),
        }
    }

    /// Batched k-bounded distances: `out[i]` ends up exactly what
    /// [`PreparedPattern::bounded`]`(texts[i], bounds[i])` returns — same
    /// results, same metrics totals — but single-word candidates are
    /// verified in *lock-step*: their per-candidate column states are laid
    /// out struct-of-arrays style and advanced one text column at a time
    /// across several candidates, so the serial dependency chain of one
    /// Myers recurrence overlaps with its neighbors'. Candidates are
    /// sorted into length buckets first so the lanes of a chunk retire
    /// together. Blocked, affix-fallback, and degenerate requests take
    /// the scalar rungs unchanged.
    pub fn bounded_batch(
        &mut self,
        requests: &[(&'t [char], usize)],
        out: &mut Vec<Option<usize>>,
    ) {
        out.clear();
        out.resize(requests.len(), None);
        self.lanes.clear();
        self.blocked_lanes.clear();
        let mut bounded_calls = 0u64;
        let mut early_exits = 0u64;
        for (i, &(text, bound)) in requests.iter().enumerate() {
            let (pre, suf) = self.affixes(text);
            let sp_len = self.query.len() - pre - suf;
            if let PreparedKind::Blocked(_) = &self.kind {
                // Mirrors the scalar rung: a multi-word window after affix
                // stripping falls back to the stock kernel, a ≤ 64-char
                // window joins the single-word lanes below.
                if (pre != 0 || suf != 0) && sp_len > 64 {
                    out[i] = myers_bounded_chars(&self.query, text, bound);
                    continue;
                }
            }
            bounded_calls += 1;
            let st_len = text.len() - pre - suf;
            if st_len.abs_diff(sp_len) > bound {
                early_exits += 1;
                continue;
            }
            if sp_len == 0 {
                out[i] = (st_len <= bound).then_some(st_len);
                continue;
            }
            let st = &text[pre..text.len() - suf];
            match &self.kind {
                PreparedKind::Word(_) | PreparedKind::Blocked(_) if sp_len <= 64 => {
                    let mask = if sp_len == 64 { !0u64 } else { (1u64 << sp_len) - 1 };
                    self.lanes.push(BatchLane {
                        text: st,
                        pre: pre as u32,
                        out_idx: i as u32,
                        mask,
                        high: 1u64 << (sp_len - 1),
                        pv: !0u64,
                        mv: 0,
                        score: sp_len as isize,
                        bound: bound as isize,
                    });
                }
                PreparedKind::Word(_) => unreachable!("word queries are ≤ 64 chars"),
                PreparedKind::Blocked(peq) if (2..=BLOCKED_MAX_W).contains(&peq.w) => {
                    self.blocked_lanes.push(BlockedLane {
                        text: st,
                        out_idx: i as u32,
                        pv: [!0u64; BLOCKED_MAX_W],
                        mv: [0u64; BLOCKED_MAX_W],
                        score: sp_len as isize,
                        bound: bound as isize,
                    });
                }
                PreparedKind::Blocked(peq) => {
                    out[i] = blocked_bounded_prepared(
                        peq,
                        self.query.len(),
                        st,
                        bound,
                        &mut self.pv,
                        &mut self.mv,
                    );
                }
            }
        }
        if bounded_calls > 0 {
            incr(Counter::EdKernelBounded, bounded_calls);
        }
        match &self.kind {
            PreparedKind::Word(peq) => {
                early_exits +=
                    word_bounded_lockstep(|c, pre| peq.get(c) >> pre, &mut self.lanes, out);
            }
            PreparedKind::Blocked(peq) => {
                early_exits += word_bounded_lockstep(
                    |c, pre| peq.window(c, pre as usize),
                    &mut self.lanes,
                    out,
                );
                early_exits +=
                    blocked_bounded_lockstep(peq, self.query.len(), &mut self.blocked_lanes, out);
            }
        }
        if early_exits > 0 {
            incr(Counter::EdKernelEarlyExit, early_exits);
        }
    }

    /// k-bounded distance to a candidate (equivalent to
    /// [`myers_bounded_chars`]`(query, text, bound)`).
    pub fn bounded(&mut self, text: &[char], bound: usize) -> Option<usize> {
        let (pre, suf) = self.affixes(text);
        let sp_len = self.query.len() - pre - suf;
        if let PreparedKind::Blocked(_) = &self.kind {
            // A shared affix leaves a shifted window of the blocked table.
            // When the window still spans multiple words, stripping shrinks
            // the scan enough to dwarf a table rebuild; fall back. A ≤ 64
            // window reuses the table via [`PeqBlocks::window`] below.
            if (pre != 0 || suf != 0) && sp_len > 64 {
                return myers_bounded_chars(&self.query, text, bound);
            }
        }
        incr(Counter::EdKernelBounded, 1);
        let st_len = text.len() - pre - suf;
        // The length gap bounds the distance from below; the query may sit
        // on either side of the candidate's length.
        if st_len.abs_diff(sp_len) > bound {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
        if sp_len == 0 {
            return (st_len <= bound).then_some(st_len);
        }
        let st = &text[pre..text.len() - suf];
        match &self.kind {
            PreparedKind::Word(peq) => word_bounded_shifted(peq, pre, sp_len, st, bound),
            PreparedKind::Blocked(peq) if sp_len <= 64 => {
                blocked_window_bounded(peq, pre, sp_len, st, bound)
            }
            PreparedKind::Blocked(peq) => blocked_bounded_prepared(
                peq,
                self.query.len(),
                st,
                bound,
                &mut self.pv,
                &mut self.mv,
            ),
        }
    }
}

/// Bottom-row bit and significant-width mask for a shifted stripped
/// pattern of `sp_len` chars starting `pre` chars into the compiled query.
#[inline]
fn shifted_masks(pre: usize, sp_len: usize) -> (u64, u64) {
    debug_assert!(sp_len >= 1 && pre + sp_len <= 64);
    let mask = if sp_len == 64 { !0u64 } else { (1u64 << sp_len) - 1 };
    (mask, 1u64 << (sp_len - 1))
}

/// [`word_distance`] driven by shifted prepared masks instead of a
/// freshly built table. Bits above `sp_len − 1` carry garbage exactly as
/// the stock kernel's do above `m − 1`: carries only travel upward, so
/// they never reach the watched bottom-row bit.
fn word_distance_shifted(peq: &PeqWord, pre: usize, sp_len: usize, text: &[char]) -> usize {
    let (mask, high) = shifted_masks(pre, sp_len);
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = sp_len as isize;
    for &c in text {
        let eq = (peq.get(c) >> pre) & mask;
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        score += isize::from(ph & high != 0);
        score -= isize::from(mh & high != 0);
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score as usize
}

/// k-bounded [`word_distance_shifted`] with the per-column early exit of
/// [`myers_bounded_chars`].
fn word_bounded_shifted(
    peq: &PeqWord,
    pre: usize,
    sp_len: usize,
    text: &[char],
    bound: usize,
) -> Option<usize> {
    let (mask, high) = shifted_masks(pre, sp_len);
    let n = text.len();
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = sp_len as isize;
    for (j, &c) in text.iter().enumerate() {
        let eq = (peq.get(c) >> pre) & mask;
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        score += isize::from(ph & high != 0);
        score -= isize::from(mh & high != 0);
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        if score - (n - j - 1) as isize > bound as isize {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    (score as usize <= bound).then_some(score as usize)
}

/// k-bounded single-word kernel over a ≤ 64-char window of a blocked
/// table ([`PeqBlocks::window`]); the affix-stripped fast path for > 64
/// char queries whose candidates share most of both flanks.
fn blocked_window_bounded(
    peq: &PeqBlocks,
    pre: usize,
    sp_len: usize,
    text: &[char],
    bound: usize,
) -> Option<usize> {
    let mask = if sp_len == 64 { !0u64 } else { (1u64 << sp_len) - 1 };
    let high = 1u64 << (sp_len - 1);
    let n = text.len();
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = sp_len as isize;
    for (j, &c) in text.iter().enumerate() {
        let eq = peq.window(c, pre) & mask;
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        score += isize::from(ph & high != 0);
        score -= isize::from(mh & high != 0);
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        if score - (n - j - 1) as isize > bound as isize {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    (score as usize <= bound).then_some(score as usize)
}

/// One candidate's column state in the lock-step word path: everything
/// [`word_bounded_shifted`] keeps in locals, owned per lane so a chunk of
/// lanes can advance together.
struct BatchLane<'t> {
    text: &'t [char],
    pre: u32,
    out_idx: u32,
    mask: u64,
    high: u64,
    pv: u64,
    mv: u64,
    score: isize,
    bound: isize,
}

/// Lanes advanced together per chunk. Wide enough to overlap the Myers
/// recurrence's serial dependency chain across candidates, small enough
/// that a chunk's state stays in L1.
const BATCH_LANES: usize = 8;

/// Lock-step driver for the shifted single-word path: lanes are sorted
/// into length buckets, then each chunk advances one text column at a
/// time across all its live lanes. Per lane the transition and the
/// early-exit check are bit-identical to [`word_bounded_shifted`];
/// returns the number of early exits (callers aggregate the counter).
///
/// `eq_at(c, pre)` supplies the (unmasked) equality word of `c` for the
/// lane's window: `PeqWord::get >> pre` for word queries,
/// [`PeqBlocks::window`] for ≤ 64-char windows of blocked queries.
fn word_bounded_lockstep(
    eq_at: impl Fn(char, u32) -> u64,
    lanes: &mut [BatchLane],
    out: &mut [Option<usize>],
) -> u64 {
    lanes.sort_unstable_by_key(|l| l.text.len());
    let mut early_exits = 0u64;
    for chunk in lanes.chunks_mut(BATCH_LANES) {
        let mut active = chunk.len();
        let mut j = 0usize;
        while active > 0 {
            let mut i = 0;
            while i < active {
                let lane = &mut chunk[i];
                let n = lane.text.len();
                if j == n {
                    // Same final check as the scalar kernel's fallthrough.
                    out[lane.out_idx as usize] =
                        (lane.score as usize <= lane.bound as usize).then_some(lane.score as usize);
                    active -= 1;
                    chunk.swap(i, active);
                    continue;
                }
                let eq = eq_at(lane.text[j], lane.pre) & lane.mask;
                let xv = eq | lane.mv;
                let xh = (((eq & lane.pv).wrapping_add(lane.pv)) ^ lane.pv) | eq;
                let mut ph = lane.mv | !(xh | lane.pv);
                let mut mh = lane.pv & xh;
                lane.score += isize::from(ph & lane.high != 0);
                lane.score -= isize::from(mh & lane.high != 0);
                ph = (ph << 1) | 1;
                mh <<= 1;
                lane.pv = mh | !(xv | ph);
                lane.mv = ph & xv;
                if lane.score - (n - j - 1) as isize > lane.bound {
                    early_exits += 1;
                    out[lane.out_idx as usize] = None;
                    active -= 1;
                    chunk.swap(i, active);
                    continue;
                }
                i += 1;
            }
            j += 1;
        }
    }
    early_exits
}

/// One candidate's column state in the lock-step blocked path: the
/// `w`-word `Pv`/`Mv` columns [`blocked_bounded_prepared`] keeps in its
/// scratch vectors, inlined into fixed arrays so a chunk of lanes lives
/// in a handful of cache lines.
struct BlockedLane<'t> {
    text: &'t [char],
    out_idx: u32,
    pv: [u64; BLOCKED_MAX_W],
    mv: [u64; BLOCKED_MAX_W],
    score: isize,
    bound: isize,
}

/// Widest blocked query (in 64-row blocks) eligible for lock-step; wider
/// queries take the scalar blocked rung. 4 blocks = 256 pattern chars,
/// comfortably past record-string lengths in the evaluation datasets.
const BLOCKED_MAX_W: usize = 4;

/// Lanes advanced together in the blocked lock-step. Half the word
/// path's width: each lane carries `w ≥ 2` words of column state, so 4
/// lanes already expose enough independent chains to fill the ALUs.
const BLOCKED_BATCH_LANES: usize = 4;

/// Lock-step driver for the blocked (no shared affix) path, the
/// multi-word sibling of [`word_bounded_lockstep`]: per lane the
/// transition and early-exit check are bit-identical to
/// [`blocked_bounded_prepared`]; returns the number of early exits.
fn blocked_bounded_lockstep(
    peq: &PeqBlocks,
    m: usize,
    lanes: &mut [BlockedLane],
    out: &mut [Option<usize>],
) -> u64 {
    if lanes.is_empty() {
        return 0;
    }
    let w = peq.w;
    debug_assert!((2..=BLOCKED_MAX_W).contains(&w));
    let last_high = 1u64 << ((m - 1) % 64);
    lanes.sort_unstable_by_key(|l| l.text.len());
    let mut early_exits = 0u64;
    for chunk in lanes.chunks_mut(BLOCKED_BATCH_LANES) {
        let mut active = chunk.len();
        let mut j = 0usize;
        while active > 0 {
            let mut i = 0;
            while i < active {
                let lane = &mut chunk[i];
                let n = lane.text.len();
                if j == n {
                    out[lane.out_idx as usize] =
                        (lane.score as usize <= lane.bound as usize).then_some(lane.score as usize);
                    active -= 1;
                    chunk.swap(i, active);
                    continue;
                }
                let eqs = peq.get(lane.text[j]);
                let mut hin = 1i32;
                for (k, &eq) in eqs.iter().enumerate().take(w) {
                    let high = if k + 1 == w { last_high } else { 1u64 << 63 };
                    hin = advance_block(&mut lane.pv[k], &mut lane.mv[k], eq, hin, high);
                }
                lane.score += hin as isize;
                if lane.score - (n - j - 1) as isize > lane.bound {
                    early_exits += 1;
                    out[lane.out_idx as usize] = None;
                    active -= 1;
                    chunk.swap(i, active);
                    continue;
                }
                i += 1;
            }
            j += 1;
        }
    }
    early_exits
}

/// [`blocked_distance`] over a prepared table, with the column state
/// borrowed from the prepared query so repeated candidates allocate
/// nothing.
fn blocked_distance_prepared(
    peq: &PeqBlocks,
    m: usize,
    text: &[char],
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
) -> usize {
    let w = peq.w;
    debug_assert!(w >= 2);
    let last_high = 1u64 << ((m - 1) % 64);
    pv.clear();
    pv.resize(w, !0u64);
    mv.clear();
    mv.resize(w, 0);
    let mut score = m as isize;
    for &c in text {
        let eqs = peq.get(c);
        let mut hin = 1i32;
        for k in 0..w {
            let high = if k + 1 == w { last_high } else { 1u64 << 63 };
            hin = advance_block(&mut pv[k], &mut mv[k], eqs[k], hin, high);
        }
        score += hin as isize;
    }
    score as usize
}

/// k-bounded [`blocked_distance_prepared`].
fn blocked_bounded_prepared(
    peq: &PeqBlocks,
    m: usize,
    text: &[char],
    bound: usize,
    pv: &mut Vec<u64>,
    mv: &mut Vec<u64>,
) -> Option<usize> {
    let w = peq.w;
    debug_assert!(w >= 2);
    let last_high = 1u64 << ((m - 1) % 64);
    pv.clear();
    pv.resize(w, !0u64);
    mv.clear();
    mv.resize(w, 0);
    let n = text.len();
    let mut score = m as isize;
    for (j, &c) in text.iter().enumerate() {
        let eqs = peq.get(c);
        let mut hin = 1i32;
        for k in 0..w {
            let high = if k + 1 == w { last_high } else { 1u64 << 63 };
            hin = advance_block(&mut pv[k], &mut mv[k], eqs[k], hin, high);
        }
        score += hin as isize;
        if score - (n - j - 1) as isize > bound as isize {
            incr(Counter::EdKernelEarlyExit, 1);
            return None;
        }
    }
    (score as usize <= bound).then_some(score as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::{levenshtein_banded, levenshtein_dp};
    use fuzzydedup_metrics::scoped;

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
    fn bounded_rejects_on_length_gap() {
        assert_eq!(myers_bounded("ab", "abcdefgh", 3), None);
        assert_eq!(myers_bounded("abcdefgh", "ab", 3), None);
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

    #[test]
    fn prepared_pattern_matches_stock_kernels() {
        let queries = [
            "",
            "a",
            "the doors",
            "microsoft corporation",
            // Exactly 64 chars (mask edge), then > 64 (blocked kind).
            &"x".repeat(64),
            &format!("a{}b", "y".repeat(78)),
            &"prefix shared middle differs suffix shared tail tail tail tail tail!".repeat(2),
        ];
        let texts = [
            "",
            "a",
            "doors",
            "the doors la woman",
            "microsft corp",
            &"x".repeat(64),
            &"x".repeat(90),
            &format!("a{}b", "y".repeat(78)),
            &format!("c{}d", "y".repeat(78)),
            &"prefix shared middle DIFFERS suffix shared tail tail tail tail tail!".repeat(2),
        ];
        for q in queries {
            let qc: Vec<char> = q.chars().collect();
            let mut prepared = PreparedPattern::new(qc.clone());
            for t in texts {
                let tc: Vec<char> = t.chars().collect();
                let exact = myers_chars(&qc, &tc);
                assert_eq!(prepared.distance(&tc), exact, "{q:?} vs {t:?}");
                for bound in [0, 1, exact.saturating_sub(1), exact, exact + 1, exact + 10] {
                    assert_eq!(
                        prepared.bounded(&tc, bound),
                        myers_bounded_chars(&qc, &tc, bound),
                        "{q:?} vs {t:?} bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_batch_matches_scalar_bounded() {
        let queries = [
            "",
            "a",
            "the doors",
            "microsoft corporation",
            &"x".repeat(64),
            &format!("a{}b", "y".repeat(78)),
            // Blocked query whose candidates share long affixes: the
            // stripped window fits one word and joins the word lanes.
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
        ];
        let text_chars: Vec<Vec<char>> = texts.iter().map(|t| t.chars().collect()).collect();
        for q in queries {
            let qc: Vec<char> = q.chars().collect();
            let mut scalar = PreparedPattern::new(qc.clone());
            let mut batched = PreparedPattern::new(qc.clone());
            for bound in [0usize, 1, 2, 5, 30, 100] {
                let requests: Vec<(&[char], usize)> =
                    text_chars.iter().map(|t| (t.as_slice(), bound)).collect();
                let expect: Vec<Option<usize>> =
                    text_chars.iter().map(|t| scalar.bounded(t, bound)).collect();
                let mut out = Vec::new();
                batched.bounded_batch(&requests, &mut out);
                assert_eq!(out, expect, "{q:?} bound {bound}");
                // Ragged tails and batch size 1 reuse the same lanes.
                for chunk in requests.chunks(1).chain(requests.chunks(3)) {
                    let mut small = Vec::new();
                    batched.bounded_batch(chunk, &mut small);
                    for (req, got) in chunk.iter().zip(&small) {
                        assert_eq!(*got, scalar.bounded(req.0, req.1), "{q:?} bound {bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_batch_counters_match_scalar() {
        let query: Vec<char> = "golden dragon palace".chars().collect();
        let texts: Vec<Vec<char>> =
            ["golden dragon palce", "golden dragon", "palace dragon golden", "zzz"]
                .iter()
                .map(|t| t.chars().collect())
                .collect();
        let mut scalar = PreparedPattern::new(query.clone());
        let ((), scalar_delta) = scoped(|| {
            for t in &texts {
                scalar.bounded(t, 6);
            }
        });
        let mut batched = PreparedPattern::new(query);
        let requests: Vec<(&[char], usize)> = texts.iter().map(|t| (t.as_slice(), 6)).collect();
        let ((), batch_delta) = scoped(|| batched.bounded_batch(&requests, &mut Vec::new()));
        assert_eq!(batch_delta, scalar_delta);
        assert_eq!(batch_delta.get(Counter::EdKernelBounded), 4);
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
