//! The layer replay: the calling thread walks every sample through the
//! pipeline's public functions in the order the engine composes them, one
//! span per call into a layer. Spans are recorded from outside (this file),
//! kept in memory, and written out when the benchmark ends.
//!
//! Two top-level spans per sample and repetition, interleaved so clock and
//! cache drift hit both alike: `core.analyze` (the sequential baseline,
//! `MegisAnalyzer::analyze`) and `replay.sample` (the same work decomposed,
//! sharded the way the workload's engine shards it). A layer's self time is
//! its span minus the part its children cover; the layer self times under
//! `replay.sample` over the `core.analyze` time is the table's closure
//! check.

use std::time::Instant;

use megis::step2::Step2Output;
use megis::step3::{self, PartialReadHit, Step3Partial};
use megis::{MegisAnalyzer, MegisOutput};
use megis_genomics::database::{PartialUnifiedIndex, ReferenceIndex};
use megis_genomics::kmer::Kmer;
use megis_genomics::sample::Sample;
use megis_sched::ShardSet;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Replay repetition the span belongs to.
    pub rep: usize,
    /// Sample the call served (spans of one sample share it); `None` for a
    /// call serving several samples at once.
    pub sample: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span log on one clock.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    rep: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next repetition; later spans carry its number.
    pub fn next_rep(&mut self) {
        self.rep += 1;
    }

    /// Repetitions recorded so far (the current one included).
    pub fn reps(&self) -> usize {
        self.rep + 1
    }

    /// Times `call` as a span named `name`; spans opened inside `call`
    /// through the recorder it receives become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        sample: Option<usize>,
        call: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rep: self.rep,
            sample,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = call(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// A span with no children.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        sample: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        self.span(name, sample, |_| call())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-repetition totals of `name`'s span durations (children included),
    /// in nanoseconds.
    pub fn total_ns_per_rep(&self, name: &str) -> Vec<f64> {
        let mut totals = vec![0.0; self.reps()];
        for span in self.spans.iter().filter(|s| s.name == name) {
            totals[span.rep] += (span.end_ns - span.start_ns) as f64;
        }
        totals
    }

    /// Per-repetition totals of `name`'s self time, in nanoseconds: each
    /// span's duration minus the part its children cover.
    pub fn self_ns_per_rep(&self, name: &str) -> Vec<f64> {
        let mut totals = self.total_ns_per_rep(name);
        for child in &self.spans {
            let parent = child.parent.map(|id| &self.spans[id]);
            if let Some(parent) = parent.filter(|p| p.name == name) {
                totals[parent.rep] -= (child.end_ns - child.start_ns) as f64;
            }
        }
        totals
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let optional = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "    {{\"id\": {id}, \"name\": \"{}\", \"rep\": {}, \"sample\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name,
                    s.rep,
                    optional(s.sample),
                    s.start_ns,
                    s.end_ns,
                    optional(s.parent)
                )
            })
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    }
}

/// The pipeline layers under `replay.sample`, in call order: the rows whose
/// self times must close against `core.analyze`.
pub const PIPELINE_LAYERS: [&str; 9] = [
    "core.step1",
    "sched.shard.slice",
    "genomics.intersect",
    "core.kss.retrieve",
    "core.step2.presence",
    "core.step3.partition",
    "genomics.unified_index.merge",
    "genomics.unified_index.map",
    "core.step3.reduce",
];

/// Members per coalesced reference sweep (`genomics.intersect_multi`).
const MULTI_MEMBERS: usize = 4;

/// Work counted at the layer boundaries during one repetition. Every field
/// is a deterministic function of the inputs, so it repeats exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub samples: u64,
    pub reads: u64,
    /// Distinct query k-mers Step 1 selected.
    pub query_kmers: u64,
    /// Query k-mers found in the database.
    pub intersecting_kmers: u64,
    /// Candidate species Step 2 reported.
    pub candidates: u64,
    pub mapped_reads: u64,
    /// Query k-mers swept by the coalesced reference calls.
    pub multi_query_kmers: u64,
    /// Replayed outputs that differ from the oracle.
    pub mismatched: u64,
}

/// Replays one repetition of the whole cohort and returns its counts.
pub fn replay_cohort(
    recorder: &mut Recorder,
    analyzer: &MegisAnalyzer,
    shards: &ShardSet,
    samples: &[Sample],
    oracle: &[MegisOutput],
) -> Counts {
    let mut counts = Counts::default();
    let mut queries_of: Vec<Vec<Kmer>> = Vec::with_capacity(samples.len());
    for (i, sample) in samples.iter().enumerate() {
        let baseline = recorder.leaf("core.analyze", Some(i), || analyzer.analyze(sample));
        let (output, queries) = recorder.span("replay.sample", Some(i), |rec| {
            replay_sample(rec, analyzer, shards, sample, i, &mut counts)
        });
        counts.samples += 1;
        counts.reads += sample.len() as u64;
        counts.mismatched += u64::from(output != oracle[i]) + u64::from(baseline != oracle[i]);
        queries_of.push(queries);
    }
    // Reference row for a later coalescing workload: one shared sweep per
    // shard view serving several samples' slices. Not part of the closure.
    for group in queries_of.chunks(MULTI_MEMBERS) {
        let slices: Vec<_> = group.iter().map(|q| shards.slice_queries(q)).collect();
        for (shard, view) in shards.shards().iter().enumerate() {
            let members: Vec<&[Kmer]> = group
                .iter()
                .zip(&slices)
                .map(|(q, s)| &q[s[shard].clone()])
                .collect();
            counts.multi_query_kmers += members.iter().map(|m| m.len() as u64).sum::<u64>();
            let hits = recorder.leaf("genomics.intersect_multi", None, || {
                view.intersect_sorted_multi(&members)
            });
            std::hint::black_box(hits);
        }
    }
    counts
}

/// One sample through the sharded pipeline, a span per layer call. Returns
/// the composed output and the sample's sorted query list.
fn replay_sample(
    rec: &mut Recorder,
    analyzer: &MegisAnalyzer,
    shards: &ShardSet,
    sample: &Sample,
    i: usize,
    counts: &mut Counts,
) -> (MegisOutput, Vec<Kmer>) {
    let at = Some(i);
    let config = *analyzer.config();
    let step1 = rec.leaf("core.step1", at, || analyzer.run_step1(sample));
    counts.query_kmers += step1.selected_kmers;
    let queries = step1.sorted_kmers();

    // Step 2, as the dispatcher and completer run it: slice per shard,
    // intersect each slice against its shard view, merge in shard order,
    // retrieve taxIDs, call presence.
    let slices = rec.leaf("sched.shard.slice", at, || shards.slice_queries(&queries));
    let mut intersecting_kmers = Vec::new();
    for (view, range) in shards.shards().iter().zip(slices) {
        if range.is_empty() {
            continue;
        }
        let slice = &queries[range];
        intersecting_kmers
            .extend(rec.leaf("genomics.intersect", at, || view.intersect_sorted(slice)));
    }
    counts.intersecting_kmers += intersecting_kmers.len() as u64;
    let support = rec.leaf("core.kss.retrieve", at, || {
        analyzer.kss().stream_retrieve(&intersecting_kmers)
    });
    let presence = rec.leaf("core.step2.presence", at, || {
        analyzer.sketches().presence_from_support(
            &support,
            config.min_containment,
            config.min_support,
        )
    });
    let step2 = Step2Output {
        intersecting_kmers,
        support,
        presence,
    };

    // Step 3, as the completer and shard workers run it: cost-aware
    // partition over the device count, merge + map per non-empty part,
    // reduce.
    let positions = analyzer.candidate_positions(&step2.presence);
    counts.candidates += positions.len() as u64;
    let indexes = analyzer.reference_indexes();
    let candidates: Vec<&ReferenceIndex> = positions.iter().map(|&p| &indexes[p]).collect();
    let parts = rec.leaf("core.step3.partition", at, || {
        step3::partition_candidates(&candidates, shards.shard_count())
    });
    let mut partials = Vec::new();
    for part in parts.into_iter().filter(|part| !part.is_empty()) {
        let index = rec.leaf("genomics.unified_index.merge", at, || {
            PartialUnifiedIndex::merge_range(&candidates[part.range.clone()], part.base_offset)
        });
        let hits = rec.leaf("genomics.unified_index.map", at, || {
            let mut hits = Vec::new();
            if !index.index().is_empty() {
                for (read, r) in sample.reads().iter().enumerate() {
                    if let Some(hit) = index.index().map_read_hit(r, config.mapping_k) {
                        hits.push(PartialReadHit {
                            read,
                            taxid: hit.taxid,
                            votes: hit.votes,
                        });
                    }
                }
            }
            hits
        });
        partials.push(Step3Partial { index, hits });
    }
    let step3 = rec.leaf("core.step3.reduce", at, || step3::reduce(partials));
    counts.mapped_reads += step3.mapped_reads;
    let output = MegisAnalyzer::assemble_output(&step1, &step2, step3);
    (output, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_per_name_and_rep() {
        let mut rec = Recorder::default();
        rec.span("outer", Some(0), |rec| {
            rec.leaf("inner", Some(0), || std::hint::black_box(1 + 1));
            rec.leaf("inner", Some(0), || std::hint::black_box(2 + 2));
        });
        rec.next_rep();
        rec.leaf("inner", None, || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[3].parent, spans[3].rep), (None, 1));
        let children: u64 = spans[1..3].iter().map(|s| s.end_ns - s.start_ns).sum();
        let outer = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(
            rec.self_ns_per_rep("outer"),
            vec![(outer - children) as f64, 0.0]
        );
        assert_eq!(rec.self_ns_per_rep("inner")[0], children as f64);
        assert_eq!(rec.total_ns_per_rep("outer"), vec![outer as f64, 0.0]);
        assert_eq!(rec.self_ns_per_rep("absent"), vec![0.0, 0.0]);
        assert!(crate::json::Value::parse(&rec.to_json()).is_ok());
    }
}
