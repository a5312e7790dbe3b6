//! Federated view: one dataset per client plus test data.

use crate::dataset::Dataset;
use crate::partition::Partition;
use crate::synth::Generator;
use rand::seq::SliceRandom;
use rayon::prelude::*;
use tifl_tensor::{seed_rng, split_seed, Matrix};

/// One client's local data.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientData {
    /// Local training samples (never leave the client).
    pub train: Dataset,
    /// Local held-out samples drawn from the *same* label distribution as
    /// the client's training data. The adaptive scheduler evaluates the
    /// global model on the union of these within a tier (`TestData_t` in
    /// Algorithm 2), so they must mirror each client's skew.
    pub test: Dataset,
}

/// A complete federated dataset: per-client data plus a balanced global
/// test set for reporting headline accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedDataset {
    /// Per-client local data, indexed by client id.
    pub clients: Vec<ClientData>,
    /// Balanced global test set (the server-side metric of Figs. 3–9).
    pub global_test: Dataset,
    /// Number of classes.
    pub classes: usize,
}

/// Synthesize every client's features for labels already drawn:
/// `labels[cid]` is client `cid`'s `(train, test)` label pair.
///
/// Client `cid` samples its training rows from stream
/// `split_seed(seed, 2 * cid)` and its holdout rows from
/// `split_seed(seed, 2 * cid + 1)`, under writer style
/// `gen.draw_style(cid)` when the spec has one. Every matrix is
/// allocated here, on the calling thread; the rows are then filled in
/// parallel, one client per job, on the ambient rayon pool. Each
/// client owns its streams, so the result is the same at any pool
/// width.
#[must_use]
pub fn synthesize_clients(
    gen: &Generator,
    labels: Vec<(Vec<usize>, Vec<usize>)>,
    seed: u64,
) -> Vec<ClientData> {
    let spec = *gen.spec();
    let zeros =
        |y: Vec<usize>| Dataset::new(Matrix::zeros(y.len(), spec.features()), y, spec.classes);
    let mut clients: Vec<ClientData> = labels
        .into_iter()
        .map(|(train, test)| ClientData {
            train: zeros(train),
            test: zeros(test),
        })
        .collect();
    clients
        .par_chunks_mut(1)
        .enumerate()
        .for_each(|(cid, client)| {
            let ClientData { train, test } = &mut client[0];
            let style = (spec.style_scale > 0.0).then(|| gen.draw_style(cid as u64));
            let stream = 2 * cid as u64;
            for (data, stream) in [(train, stream), (test, stream + 1)] {
                gen.fill_with_labels_and_style(
                    &data.y,
                    style.as_deref(),
                    split_seed(seed, stream),
                    &mut data.x,
                );
            }
        });
    clients
}

impl FederatedDataset {
    /// Materialise a federated dataset from a partition.
    ///
    /// * `test_fraction` — size of each client's holdout relative to its
    ///   training set (labels resampled from the client's own empirical
    ///   label distribution, so skew is mirrored);
    /// * `global_test_per_class` — samples per class in the global test
    ///   set.
    ///
    /// Labels are drawn on the calling thread and the features filled
    /// by [`synthesize_clients`], so the work spreads over the ambient
    /// rayon pool and the result does not depend on its width.
    ///
    /// # Panics
    /// Panics if `test_fraction` is not in `[0, 1]` or a client has no
    /// samples.
    #[must_use]
    pub fn materialize(
        gen: &Generator,
        partition: &Partition,
        test_fraction: f64,
        global_test_per_class: usize,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&test_fraction),
            "test_fraction out of range"
        );
        let labels = partition
            .labels
            .iter()
            .enumerate()
            .map(|(cid, labels)| {
                assert!(!labels.is_empty(), "client {cid} has no samples");
                // Holdout labels: resample from the client's empirical
                // label distribution.
                let n_test = ((labels.len() as f64 * test_fraction).round() as usize).max(1);
                let mut rng = seed_rng(split_seed(seed, 0xE5C0 ^ cid as u64));
                let test_labels: Vec<usize> = (0..n_test)
                    .map(|_| *labels.choose(&mut rng).expect("non-empty"))
                    .collect();
                (labels.clone(), test_labels)
            })
            .collect();
        let clients = synthesize_clients(gen, labels, seed);
        let global_test = gen.generate_balanced(global_test_per_class, split_seed(seed, 0x6E57));
        Self {
            clients,
            global_test,
            classes: partition.classes,
        }
    }

    /// Number of clients.
    #[must_use]
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Per-client training-set sizes (the FedAvg aggregation weights).
    #[must_use]
    pub fn train_sizes(&self) -> Vec<usize> {
        self.clients.iter().map(|c| c.train.len()).collect()
    }

    /// Union of the holdout sets of the given clients (a tier's
    /// `TestData_t`).
    ///
    /// # Panics
    /// Panics if `client_ids` is empty.
    #[must_use]
    pub fn tier_test_set(&self, client_ids: &[usize]) -> Dataset {
        let parts: Vec<&Dataset> = client_ids.iter().map(|&c| &self.clients[c].test).collect();
        Dataset::concat(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;
    use crate::synth::{SynthFamily, SynthSpec};

    fn build(seed: u64) -> FederatedDataset {
        let gen = Generator::new(SynthSpec::family(SynthFamily::Mnist), seed);
        let part = partition::class_limit(10, 50, 10, 2, &mut seed_rng(seed));
        FederatedDataset::materialize(&gen, &part, 0.2, 10, seed)
    }

    #[test]
    fn materialize_counts() {
        let fed = build(0);
        assert_eq!(fed.num_clients(), 10);
        assert!(fed.train_sizes().iter().all(|&s| s == 50));
        for c in &fed.clients {
            assert_eq!(c.test.len(), 10); // 20% of 50
        }
        assert_eq!(fed.global_test.len(), 100);
    }

    #[test]
    fn holdout_mirrors_client_skew() {
        let fed = build(1);
        for c in &fed.clients {
            // class_limit(k=2): holdout must use only the client's classes.
            let train_classes: Vec<usize> = c
                .train
                .class_counts()
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, _)| i)
                .collect();
            for (cls, &n) in c.test.class_counts().iter().enumerate() {
                if n > 0 {
                    assert!(
                        train_classes.contains(&cls),
                        "holdout class {cls} absent from training data"
                    );
                }
            }
        }
    }

    #[test]
    fn global_test_is_balanced() {
        let fed = build(2);
        assert!(fed.global_test.class_counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn tier_test_set_unions_holdouts() {
        let fed = build(3);
        let t = fed.tier_test_set(&[0, 1, 2]);
        assert_eq!(t.len(), 30);
    }

    #[test]
    fn materialize_is_deterministic() {
        let a = build(4);
        let b = build(4);
        assert_eq!(a.global_test, b.global_test);
        assert_eq!(a.clients[3].train, b.clients[3].train);
    }

    /// The parallel fill draws exactly the samples of a per-client
    /// `generate_with_labels_and_style` on each client's own streams.
    #[test]
    fn materialize_matches_per_client_generation() {
        let mut spec = SynthSpec::family(SynthFamily::Mnist);
        spec.style_scale = 0.5;
        let gen = Generator::new(spec, 5);
        let part = partition::class_limit(6, 20, 10, 2, &mut seed_rng(5));
        let fed = FederatedDataset::materialize(&gen, &part, 0.2, 3, 9);
        for (cid, client) in fed.clients.iter().enumerate() {
            let style = gen.draw_style(cid as u64);
            let train = gen.generate_with_labels_and_style(
                &part.labels[cid],
                Some(&style),
                split_seed(9, 2 * cid as u64),
            );
            let test = gen.generate_with_labels_and_style(
                &client.test.y,
                Some(&style),
                split_seed(9, 2 * cid as u64 + 1),
            );
            assert_eq!(client.train, train, "client {cid} train");
            assert_eq!(client.test, test, "client {cid} test");
        }
    }

    use tifl_tensor::seed_rng;
}
