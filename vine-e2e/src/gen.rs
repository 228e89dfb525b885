//! Seeded input generators. The seed picks image ids and candidate
//! molecules; the program sees only the generated arguments.

/// SplitMix64: a small, well-mixed generator whose stream depends only on
/// its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ 0x7669_6e65_2d65_3265)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Model shape of the LNNI library: 3 layers of width 32.
pub const LNNI_LAYERS: i64 = 3;
pub const LNNI_DIM: i64 = 32;
/// Images classified by one invocation.
pub const IMAGES_PER_CALL: i64 = 16;
/// Distinct argument sets per run. Calls draw from this pool, so every
/// result can be checked against a replay computed once per argument set.
pub const LNNI_POOL: usize = 64;
const IMAGE_ID_SPACE: u64 = 1 << 20;

/// LNNI invocation arguments: `infer(first_image, IMAGES_PER_CALL)`.
#[derive(Clone, Debug)]
pub struct LnniInputs {
    /// First image id of each argument set.
    pub pool: Vec<i64>,
    rng: SplitMix64,
}

impl LnniInputs {
    pub fn new(seed: u64) -> LnniInputs {
        let mut rng = SplitMix64::new(seed);
        let mut pool = Vec::with_capacity(LNNI_POOL);
        while pool.len() < LNNI_POOL {
            let first = rng.below(IMAGE_ID_SPACE) as i64;
            if !pool.contains(&first) {
                pool.push(first);
            }
        }
        LnniInputs { pool, rng }
    }

    /// The pool index of the next invocation's arguments.
    pub fn next_index(&mut self) -> usize {
        self.rng.below(LNNI_POOL as u64) as usize
    }
}

/// ExaMol steering-round shape: each round is `train` → `BATCH` ×
/// `infer(model, candidates)` → `BATCH` × `simulate(pick, SIM_STEPS)`.
pub const EXAMOL_ROUNDS: usize = 150;
pub const EXAMOL_BATCH: usize = 6;
pub const EXAMOL_CANDIDATES: usize = 8;
pub const EXAMOL_SIM_STEPS: i64 = 400;
/// Seed molecules the library's context setup simulates.
pub const EXAMOL_SEED_MOLECULES: i64 = 8;
const MOLECULE_SPACE: u64 = 100_000;

/// Nodes in one ExaMol graph.
pub const fn examol_nodes() -> usize {
    EXAMOL_ROUNDS * (1 + 2 * EXAMOL_BATCH)
}

/// Candidate molecules of every `infer` node, round by round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExamolGraph {
    pub rounds: Vec<Vec<Vec<i64>>>,
}

impl ExamolGraph {
    pub fn new(seed: u64) -> ExamolGraph {
        let mut rng = SplitMix64::new(seed.rotate_left(17) ^ 0x6578_616d);
        let rounds = (0..EXAMOL_ROUNDS)
            .map(|_| {
                (0..EXAMOL_BATCH)
                    .map(|_| {
                        (0..EXAMOL_CANDIDATES)
                            .map(|_| rng.below(MOLECULE_SPACE) as i64)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        ExamolGraph { rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lnni_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let (mut a, mut b) = (LnniInputs::new(7), LnniInputs::new(7));
        assert_eq!(a.pool, b.pool);
        let sa: Vec<usize> = (0..1000).map(|_| a.next_index()).collect();
        let sb: Vec<usize> = (0..1000).map(|_| b.next_index()).collect();
        assert_eq!(sa, sb);
        let mut c = LnniInputs::new(8);
        assert_ne!(a.pool, c.pool);
        let sc: Vec<usize> = (0..1000).map(|_| c.next_index()).collect();
        assert_ne!(sa, sc);
        let mut distinct = a.pool.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), LNNI_POOL);
    }

    #[test]
    fn examol_graph_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(ExamolGraph::new(3), ExamolGraph::new(3));
        assert_ne!(ExamolGraph::new(3), ExamolGraph::new(4));
        let g = ExamolGraph::new(3);
        assert_eq!(g.rounds.len(), EXAMOL_ROUNDS);
        assert!(g
            .rounds
            .iter()
            .all(|r| r.len() == EXAMOL_BATCH && r.iter().all(|c| c.len() == EXAMOL_CANDIDATES)));
    }
}
