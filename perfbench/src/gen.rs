//! Seeded input generation. Everything the program under test sees —
//! executables, sbatch scripts, the facility trace, outcome reports —
//! comes from here, derived only from the workload seed.

use std::sync::Arc;

use eco_hpcg::workload::{ScalingKind, SyntheticWorkload, Workload};
use eco_sim_node::class::NodeClass;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The node classes every workload's cluster is built from.
pub fn classes() -> Vec<NodeClass> {
    vec![NodeClass::sr650(), NodeClass::dense64()]
}

/// A generated application: its install path, its executable contents
/// (what the plugin hashes) and the simulated work it does.
pub struct Binary {
    pub path: String,
    pub contents: String,
    pub workload: Arc<SyntheticWorkload>,
}

/// Executable sizes, in bytes. Real binaries are far longer than the
/// short identity strings the simulator uses elsewhere; the length
/// matters because the plugin's djb2 hash only reaches its high bits
/// (which pick the registry shard) over long inputs.
const CONTENTS_LEN: (usize, usize) = (4 * 1024, 12 * 1024);

/// `n` applications, alternating compute- and memory-bound. Their run
/// times at a typical configuration are spread evenly over `runtime_s`
/// whatever the seed, so seeds change which executable is which (and
/// with it every hash) but not the mix of work.
pub fn binaries(seed: u64, n: usize, runtime_s: (f64, f64)) -> Vec<Binary> {
    let mut rng = Rng::stream(seed, 1);
    let typical = eco_sim_node::cpu::CpuConfig::new(32, 2_200_000, 1);
    (0..n)
        .map(|i| {
            let kind = if i % 2 == 0 { ScalingKind::ComputeBound } else { ScalingKind::MemoryBound };
            let name = format!("app{i:03}");
            let len = CONTENTS_LEN.0 + rng.below(CONTENTS_LEN.1 - CONTENTS_LEN.0);
            let mut contents = String::with_capacity(len + 16);
            contents.push_str("\u{7f}ELF");
            while contents.len() < len {
                let c = (rng.next_u64() % 94) as u8 + b' ';
                contents.push(c as char);
            }
            // pair up compute- and memory-bound applications on one rung
            let rung = (i / 2) as f64 + 0.5;
            let rungs = n.div_ceil(2) as f64;
            let runtime = runtime_s.0 + (runtime_s.1 - runtime_s.0) * rung / rungs;
            let gflop = SyntheticWorkload::new(&name, kind, 1.0, 1.0).gflops(&typical) * runtime;
            Binary {
                path: format!("/apps/{name}/bin/{name}"),
                contents,
                workload: Arc::new(SyntheticWorkload::new(&name, kind, gflop, 1.0)),
            }
        })
        .collect()
}

/// One generated submission.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub script: String,
    pub user: &'static str,
    pub class: usize,
    pub binary: usize,
    pub opted_in: bool,
    pub ntasks: u32,
}

const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

/// Shapes of the generated job stream.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Jobs out of every 10 that opt in with `--comment "chronus"`.
    pub opt_in_of_10: usize,
    /// Weights of 1, 2, 3 and 4 nodes per job.
    pub nodes: [usize; 4],
}

/// Draws without replacement from a shuffled deck, reshuffling when it
/// runs out: every value appears at its share in each pass, so the mix
/// of a run is the same whatever the seed and only the order changes.
struct Deck<T: Copy> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// An endless, seeded stream of sbatch scripts.
pub struct JobStream {
    rng: Rng,
    classes: Vec<(String, u32)>,
    paths: Vec<String>,
    keys: Deck<(usize, usize)>,
    opt_in: Deck<bool>,
    nodes: Deck<u32>,
    whole_node: Deck<bool>,
    users: Deck<&'static str>,
    next: u64,
}

impl JobStream {
    pub fn new(seed: u64, purpose: u64, classes: &[NodeClass], binaries: &[Binary], mix: Mix) -> JobStream {
        let keys = (0..classes.len()).flat_map(|c| (0..binaries.len()).map(move |b| (c, b))).collect();
        let nodes = (1..=4u32).flat_map(|n| std::iter::repeat_n(n, mix.nodes[n as usize - 1])).collect();
        JobStream {
            rng: Rng::stream(seed, purpose),
            classes: classes.iter().map(|c| (c.name.clone(), c.spec.cores)).collect(),
            paths: binaries.iter().map(|b| b.path.clone()).collect(),
            keys: Deck::new(keys),
            opt_in: Deck::new((0..10).map(|i| i < mix.opt_in_of_10).collect()),
            nodes: Deck::new(nodes),
            whole_node: Deck::new(vec![true, false]),
            users: Deck::new(USERS.to_vec()),
            next: 0,
        }
    }

    pub fn next_job(&mut self) -> JobSpec {
        let (class, binary) = self.keys.draw(&mut self.rng);
        let opted_in = self.opt_in.draw(&mut self.rng);
        let nodes = self.nodes.draw(&mut self.rng);
        let user = self.users.draw(&mut self.rng);
        let (partition, cores) = &self.classes[class];
        // jobs that do not opt in ask for a whole or half node themselves
        let ntasks = if self.whole_node.draw(&mut self.rng) { *cores } else { cores / 2 };
        let n = self.next;
        self.next += 1;
        let mut script = format!(
            "#!/bin/bash\n#SBATCH --job-name=j{n}\n#SBATCH --partition={partition}\n#SBATCH --nodes={nodes}\n#SBATCH --ntasks={ntasks}\n"
        );
        if opted_in {
            script.push_str("#SBATCH --comment \"chronus\"\n");
        }
        script.push_str(&format!("\nsrun {}\n", self.paths[binary]));
        JobSpec { script, user, class, binary, opted_in, ntasks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let cls = classes();
        let a = binaries(7, 4, (30.0, 60.0));
        let b = binaries(7, 4, (30.0, 60.0));
        let c = binaries(8, 4, (30.0, 60.0));
        assert!(a.iter().zip(&b).all(|(x, y)| x.contents == y.contents && x.path == y.path));
        assert!(a.iter().zip(&c).any(|(x, y)| x.contents != y.contents));
        let mix = Mix { opt_in_of_10: 8, nodes: [1, 1, 1, 1] };
        let mut s1 = JobStream::new(7, 2, &cls, &a, mix);
        let mut s2 = JobStream::new(7, 2, &cls, &b, mix);
        for _ in 0..100 {
            assert_eq!(s1.next_job().script, s2.next_job().script);
        }
    }

    #[test]
    fn scripts_parse_into_the_generated_job() {
        let cls = classes();
        let bins = binaries(3, 4, (30.0, 60.0));
        let mut s = JobStream::new(3, 2, &cls, &bins, Mix { opt_in_of_10: 5, nodes: [1, 1, 1, 1] });
        for _ in 0..50 {
            let job = s.next_job();
            let desc = eco_slurm_sim::parse_script(&job.script, job.user).unwrap();
            assert_eq!(desc.binary_path, bins[job.binary].path);
            assert_eq!(desc.partition.as_deref(), Some(cls[job.class].name.as_str()));
            assert_eq!(desc.comment == "chronus", job.opted_in);
            assert_eq!(desc.num_tasks, job.ntasks);
        }
    }

    #[test]
    fn every_pass_of_a_deck_holds_each_card_once() {
        let mut rng = Rng::new(11);
        let mut deck = Deck::new((0..7).collect::<Vec<u32>>());
        for _ in 0..5 {
            let mut pass: Vec<u32> = (0..7).map(|_| deck.draw(&mut rng)).collect();
            pass.sort_unstable();
            assert_eq!(pass, (0..7).collect::<Vec<u32>>());
        }
    }
}
