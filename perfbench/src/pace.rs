//! The host's pace, and the measured windows read at it.
//!
//! The virtual machine this benchmark was built on runs at two speeds,
//! in phases that last from one to tens of seconds: in the slow phase
//! ordinary code (the submit path, the scheduler pass, and a fixed
//! reference kernel alike) takes 1.5–1.9 times as long. A run's figure
//! then follows the share of the run that fell in slow phases, not the
//! program. So the measured phase is cut into windows, a fixed
//! [`reference`] kernel is timed between them, and the end-to-end
//! timings are read over the windows with the quickest reference
//! readings around them: the program at the host's full pace.
//!
//! Windows come in two kinds. A closed loop that repeats statistically
//! alike rounds is cut every [`WINDOW`] and keeps the quickest quarter.
//! A replayed trace (`facility`, whose replays are identical) is cut
//! into fixed blocks of ticks, and each block keeps the replay that ran
//! it at the quickest pace, so every run reads every block exactly once.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::stats::Samples;

/// Target length of one measured window.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Elements of the reference kernel's memory-bound part: 8 MiB, beyond
/// a core's own caches.
const MEMORY_WORDS: usize = 1 << 20;

/// Wall time of a fixed reference kernel that does not involve the
/// program under test, in three parts that each slow down in their own
/// way when the host is busy: ordinary code (a sort, string formatting,
/// hash-map inserts and lookups), dependent reads scattered over 8 MiB,
/// and `stat` system calls on the working directory. Each part is run
/// three times and its quickest run counts; 0.6–1.5 ms in all, as the
/// host runs.
pub fn reference() -> Duration {
    static MEMORY: OnceLock<Vec<u64>> = OnceLock::new();
    let memory = MEMORY.get_or_init(|| {
        let mut rng = Rng::new(7);
        (0..MEMORY_WORDS).map(|_| rng.next_u64()).collect()
    });
    let quickest = |part: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                part();
                t.elapsed()
            })
            .min()
            .expect("three runs")
    };
    let code = || {
        let mut rng = Rng::new(42);
        let mut v: Vec<u64> = (0..10_000).map(|_| rng.next_u64()).collect();
        v.sort_unstable();
        let mut map: HashMap<u64, String> = HashMap::new();
        for (i, x) in v.iter().enumerate().take(2_500) {
            map.insert(*x, format!("{i}:{x}"));
        }
        let found: usize = v.iter().take(5_000).filter_map(|x| map.get(x)).map(String::len).sum();
        std::hint::black_box(found);
    };
    let reads = || {
        let mut at = 0u64;
        for _ in 0..10_000 {
            at = at.rotate_left(5) ^ memory[at as usize % MEMORY_WORDS];
        }
        std::hint::black_box(at);
    };
    let calls = || {
        for _ in 0..300 {
            let _ = std::hint::black_box(std::fs::metadata("."));
        }
    };
    quickest(&code) + quickest(&reads) + quickest(&calls)
}

/// One measured window: the samples it added, its wall time (the
/// reference readings excluded), the slower of the reference readings
/// taken just before and just after it, and, for a block of a replayed
/// trace, the block's index in the replay.
#[derive(Debug, Clone)]
pub struct Window {
    pub sbatch: Range<usize>,
    pub ticks: Range<usize>,
    pub wall: Duration,
    pub pace: Duration,
    pub block: Option<usize>,
}

/// Cuts a measured phase into windows.
pub struct Windows {
    opened: Instant,
    sbatch: usize,
    ticks: usize,
    pace_before: Duration,
    /// The index of the open block, when cutting a replay into blocks.
    block: Option<usize>,
}

impl Windows {
    /// Opens the first window of a closed loop, with `sbatch` and
    /// `ticks` samples taken so far.
    pub fn open(sbatch: &Samples, ticks: &Samples) -> Windows {
        let pace_before = reference();
        Windows { opened: Instant::now(), sbatch: sbatch.len(), ticks: ticks.len(), pace_before, block: None }
    }

    /// Opens the first block of one replay of a trace.
    pub fn blocks(sbatch: &Samples, ticks: &Samples) -> Windows {
        Windows { block: Some(0), ..Windows::open(sbatch, ticks) }
    }

    /// Closes the open window once it has run for [`WINDOW`] (or always,
    /// with `force`; blocks close only so), appending it to `out` and
    /// opening the next. A window that took no samples is not kept.
    pub fn cut(&mut self, sbatch: &Samples, ticks: &Samples, out: &mut Vec<Window>, force: bool) {
        let wall = self.opened.elapsed();
        let empty = self.sbatch == sbatch.len() && self.ticks == ticks.len();
        if empty || !(force || (self.block.is_none() && wall >= WINDOW)) {
            return;
        }
        let pace_after = reference();
        out.push(Window {
            sbatch: self.sbatch..sbatch.len(),
            ticks: self.ticks..ticks.len(),
            wall,
            pace: self.pace_before.max(pace_after),
            block: self.block,
        });
        self.pace_before = pace_after;
        self.block = self.block.map(|b| b + 1);
        (self.opened, self.sbatch, self.ticks) = (Instant::now(), sbatch.len(), ticks.len());
    }
}

/// The windows the end-to-end timings are read over, in their original
/// order: for each block index, the window with the quickest reference
/// readings around it; for windows that are not blocks, the quickest
/// quarter (at least one).
pub fn quickest(windows: &[Window]) -> Vec<&Window> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by_key(|&i| (windows[i].pace, i));
    let mut blocks_seen = std::collections::HashSet::new();
    let mut loose = windows.iter().filter(|w| w.block.is_none()).count().div_ceil(4);
    order.retain(|&i| match windows[i].block {
        Some(b) => blocks_seen.insert(b),
        None if loose > 0 => {
            loose -= 1;
            true
        }
        None => false,
    });
    order.sort_unstable();
    order.into_iter().map(|i| &windows[i]).collect()
}

/// The times of the quicker-paced half (at least one) of `samples`,
/// each a pair of the pace around it and the time itself.
pub fn quicker_half(mut samples: Vec<(Duration, f64)>) -> Vec<f64> {
    samples.sort_by_key(|s| s.0);
    samples.truncate(samples.len().div_ceil(2));
    samples.into_iter().map(|s| s.1).collect()
}

/// The samples of `all` that fall in the given windows' ranges.
pub fn pick(all: &Samples, ranges: impl Iterator<Item = Range<usize>>) -> Samples {
    let mut out = Samples::default();
    for r in ranges {
        for &ns in &all.raw()[r] {
            out.push_ns(ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(i: usize, pace_us: u64) -> Window {
        Window {
            sbatch: i * 10..(i + 1) * 10,
            ticks: i * 2..(i + 1) * 2,
            wall: Duration::from_millis(250),
            pace: Duration::from_micros(pace_us),
            block: None,
        }
    }

    #[test]
    fn the_quarter_with_the_quickest_pace_is_kept() {
        let paces = [1900, 1000, 1850, 1100, 1050, 1800, 2000, 1020];
        let windows: Vec<Window> = paces.iter().enumerate().map(|(i, &p)| window(i, p)).collect();
        let kept: Vec<u64> = quickest(&windows).iter().map(|w| w.pace.as_micros() as u64).collect();
        assert_eq!(kept, [1000, 1020], "two of eight, in run order");
        assert_eq!(quickest(&windows[..3]).len(), 1, "at least one window");
        assert!(quickest(&[]).is_empty());
    }

    #[test]
    fn each_block_keeps_its_quickest_replay() {
        // three replays of three blocks; block b of replay r is window 3r + b
        let paces = [1500, 1000, 1900, 1100, 1800, 1900, 1200, 1300, 1000];
        let windows: Vec<Window> =
            paces.iter().enumerate().map(|(i, &p)| Window { block: Some(i % 3), ..window(i, p) }).collect();
        let kept: Vec<(Option<usize>, u64)> =
            quickest(&windows).iter().map(|w| (w.block, w.pace.as_micros() as u64)).collect();
        assert_eq!(kept, [(Some(1), 1000), (Some(0), 1100), (Some(2), 1000)]);
    }

    #[test]
    fn set_ups_keep_their_quicker_paced_half() {
        let ms = Duration::from_millis;
        let samples = vec![(ms(2), 0.9), (ms(1), 0.5), (ms(3), 1.0), (ms(1), 0.6), (ms(2), 0.7)];
        assert_eq!(quicker_half(samples), [0.5, 0.6, 0.9]);
        assert_eq!(quicker_half(vec![(ms(5), 2.0)]), [2.0]);
    }

    #[test]
    fn picked_samples_are_those_of_the_windows() {
        let mut all = Samples::default();
        for ns in 0..40u64 {
            all.push_ns(ns);
        }
        let windows: Vec<Window> = [5, 1, 9, 7].iter().enumerate().map(|(i, &p)| window(i, p)).collect();
        let kept = quickest(&windows);
        let picked = pick(&all, kept.iter().map(|w| w.sbatch.clone()));
        assert_eq!(picked.raw(), (10..20).collect::<Vec<u64>>());
    }

    #[test]
    fn a_window_spans_what_was_pushed_while_it_was_open() {
        let (mut sbatch, mut ticks) = (Samples::default(), Samples::default());
        sbatch.push_ns(1);
        let mut cut = Windows::open(&sbatch, &ticks);
        let mut out = Vec::new();
        sbatch.push_ns(2);
        ticks.push_ns(3);
        cut.cut(&sbatch, &ticks, &mut out, false);
        assert!(out.is_empty(), "a window shorter than WINDOW stays open");
        cut.cut(&sbatch, &ticks, &mut out, true);
        cut.cut(&sbatch, &ticks, &mut out, true);
        assert_eq!(out.len(), 1, "an empty window is not kept");
        sbatch.push_ns(4);
        cut.cut(&sbatch, &ticks, &mut out, true);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].sbatch.clone(), out[0].ticks.clone()), (1..2, 0..1));
        assert_eq!((out[1].sbatch.clone(), out[1].ticks.clone()), (2..3, 1..1));
        assert!(out.iter().all(|w| w.pace > Duration::ZERO && w.block.is_none()));
    }

    #[test]
    fn blocks_close_only_when_told_and_count_up() {
        let (mut sbatch, ticks) = (Samples::default(), Samples::default());
        let mut cut = Windows::blocks(&sbatch, &ticks);
        let mut out = Vec::new();
        for _ in 0..3 {
            sbatch.push_ns(1);
            std::thread::sleep(WINDOW / 100);
            cut.cut(&sbatch, &ticks, &mut out, false);
            cut.cut(&sbatch, &ticks, &mut out, true);
        }
        let blocks: Vec<Option<usize>> = out.iter().map(|w| w.block).collect();
        assert_eq!(blocks, [Some(0), Some(1), Some(2)]);
    }
}
