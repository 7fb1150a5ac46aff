//! Drivers for every table and figure of the paper's evaluation.
//!
//! Each function regenerates the data behind one exhibit of Sechrest,
//! Lee & Mudge (ISCA 1996) on the synthetic workload models; [`paper`]
//! regenerates all of them at once. The `bpred-bench` binaries are
//! thin wrappers that call these and print the result; tests call them
//! with reduced trace lengths.
//!
//! # Plans and views
//!
//! An exhibit is written once, as a function that reads its
//! `(workload, configuration)` cells from a `Cells` value, and runs twice.
//! The first run *declares*: each read records its cells in a plan and
//! answers placeholders. The plan then simulates each workload's
//! distinct cells once, and the second run *views*: each read answers
//! the simulated results. [`paper`] runs every exhibit against one
//! plan, so a cell several exhibits read — Figure 7 re-reads Figures 4
//! and 6, Table 3 re-reads Figures 4, 6, 9 and 10 — is simulated once.
//!
//! A plan replays each workload in passes over one streaming source,
//! each pass holding as many of the workload's cells, in declaration
//! order, as fit in [`PREFETCH_SPILL_BYTES`] of packed counters (see
//! DESIGN.md, "Paper plan").

use std::collections::{HashMap, HashSet};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use bpred_core::PredictorConfig;
use bpred_trace::stats::{StatsFold, TraceStats};
use bpred_trace::{Trace, TraceSource};
use bpred_workloads::{suite, WorkloadModel, WorkloadSource};

use crate::cache::run_configs_keyed;
use crate::multilane::PREFETCH_SPILL_BYTES;
use crate::report::{percent, TextTable};
use crate::{SimResult, Simulator, Surface};

/// Common knobs shared by all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Override the per-model default trace length (conditional
    /// branches), e.g. for quick runs.
    pub branches: Option<usize>,
    /// Trace generation seed.
    pub seed: u64,
    /// Smallest tier, as log2 of the counter count (paper: 4, i.e. 16
    /// counters).
    pub min_bits: u32,
    /// Largest tier (paper: 15, i.e. 32,768 counters).
    pub max_bits: u32,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            branches: None,
            seed: 1996,
            min_bits: 4,
            max_bits: 15,
        }
    }
}

impl ExperimentOptions {
    /// Quick variant used by tests: short traces, tiers 4..=8.
    pub fn quick() -> Self {
        ExperimentOptions {
            branches: Some(30_000),
            min_bits: 4,
            max_bits: 8,
            ..ExperimentOptions::default()
        }
    }

    /// Generates the trace for `model` under these options.
    pub fn trace(&self, model: &WorkloadModel) -> Trace {
        match self.branches {
            Some(n) => model.trace_of_length(self.seed, n),
            None => model.trace(self.seed),
        }
    }

    /// A streaming [`TraceSource`] over the same records
    /// [`trace`](Self::trace) would materialise. Sweep drivers hand
    /// this to the batched engine so long traces are generated on the
    /// fly instead of held in memory.
    pub fn source(&self, model: &WorkloadModel) -> WorkloadSource {
        match self.branches {
            Some(n) => WorkloadSource::with_length(model.clone(), self.seed, n),
            None => WorkloadSource::new(model.clone(), self.seed),
        }
    }

    /// The tiers every surface sweeps, as log2 of the counter count.
    fn tiers(&self) -> RangeInclusive<u32> {
        self.min_bits..=self.max_bits
    }
}

// ---------------------------------------------------------------- The plan

/// A suite model, built once per plan and shared by every exhibit.
type Model = Rc<WorkloadModel>;

/// Where an exhibit reads its cells: a plan being declared, then the
/// plan's results (see the module docs). An exhibit must read the same
/// cells whatever the results are — every exhibit here does — and
/// reading a cell the plan did not declare panics.
#[derive(Debug, Default)]
struct Cells {
    models: HashMap<String, Model>,
    /// Per workload, in first-declared order.
    plan: Vec<PlanWorkload>,
    /// The results by workload name, once the plan has run.
    results: Option<HashMap<String, WorkloadCells>>,
}

/// One workload's declared cells.
#[derive(Debug)]
struct PlanWorkload {
    model: Model,
    /// Distinct configurations, in first-declared order.
    configs: Vec<PredictorConfig>,
    declared: HashSet<PredictorConfig>,
    /// A view needs the workload's trace statistics.
    stats: bool,
}

/// One workload's simulated cells.
#[derive(Debug)]
struct WorkloadCells {
    results: HashMap<PredictorConfig, SimResult>,
    stats: Option<TraceStats>,
}

impl Cells {
    /// The suite model named `name`, built on first use.
    fn model(&mut self, name: &str) -> Model {
        let model = self.models.entry(name.to_owned()).or_insert_with(|| {
            Rc::new(suite::by_name(name).expect("every exhibit reads suite benchmarks"))
        });
        Rc::clone(model)
    }

    /// All fourteen benchmarks, in Table 1 order.
    fn all(&mut self) -> Vec<Model> {
        suite::all_specs()
            .iter()
            .map(|spec| self.model(&spec.name))
            .collect()
    }

    /// The three focus benchmarks of [`suite::focus`].
    fn focus(&mut self) -> Vec<Model> {
        ["espresso", "mpeg_play", "real_gcc"]
            .map(|name| self.model(name))
            .into()
    }

    fn declare(&mut self, model: &Model) -> &mut PlanWorkload {
        let found = self
            .plan
            .iter()
            .position(|w| w.model.name() == model.name());
        let index = found.unwrap_or_else(|| {
            self.plan.push(PlanWorkload {
                model: Rc::clone(model),
                configs: Vec::new(),
                declared: HashSet::new(),
                stats: false,
            });
            self.plan.len() - 1
        });
        &mut self.plan[index]
    }

    /// The results of `configs` on `model`, in order.
    fn results(&mut self, model: &Model, configs: &[PredictorConfig]) -> Vec<SimResult> {
        if let Some(results) = &self.results {
            let cells = &results[model.name()].results;
            return configs.iter().map(|config| cells[config].clone()).collect();
        }
        let workload = self.declare(model);
        for &config in configs {
            if workload.declared.insert(config) {
                workload.configs.push(config);
            }
        }
        vec![SimResult::default(); configs.len()]
    }

    /// The trace statistics of `model`.
    fn stats(&mut self, model: &Model) -> TraceStats {
        if let Some(results) = &self.results {
            return results[model.name()]
                .stats
                .clone()
                .expect("statistics were declared");
        }
        self.declare(model).stats = true;
        StatsFold::new().finish()
    }

    /// Simulates every declared cell once, workload by workload, in
    /// [`passes`] bounded by [`PREFETCH_SPILL_BYTES`]. Each pass goes
    /// through [`run_configs_keyed`], so an installed result cache
    /// serves and stores every cell. Statistics come from one more
    /// streaming pass over the workload's chunks; no trace is
    /// materialised.
    fn simulate(&mut self, opts: &ExperimentOptions) {
        let results = self
            .plan
            .iter()
            .map(|w| {
                let source = opts.source(&w.model);
                let source_id = source.cache_id();
                let mut results = HashMap::with_capacity(w.configs.len());
                for pass in passes(&w.configs, PREFETCH_SPILL_BYTES) {
                    let configs = &w.configs[pass];
                    let simulated =
                        run_configs_keyed(configs, &source, Simulator::new(), Some(&source_id));
                    results.extend(configs.iter().copied().zip(simulated));
                }
                let stats = w.stats.then(|| TraceStats::measure_source(&source));
                (w.model.name().to_owned(), WorkloadCells { results, stats })
            })
            .collect();
        self.results = Some(results);
    }
}

/// Splits a workload's cells into replay passes: consecutive runs, in
/// declaration order, whose packed counter arenas (8 bytes per
/// counter) total at most `budget_bytes`. A cell over the budget on
/// its own gets a pass to itself.
///
/// Every lane group cycles its whole arena once per chunk, so a pass
/// whose arenas outgrow the private caches pays for it on every chunk;
/// [`Cells::simulate`] bounds passes by the prefetch gate's spill
/// threshold.
fn passes(configs: &[PredictorConfig], budget_bytes: u64) -> Vec<Range<usize>> {
    let mut passes = Vec::new();
    let (mut start, mut bytes) = (0, 0u64);
    for (i, config) in configs.iter().enumerate() {
        let cell = 8 * config.counters();
        if i > start && bytes + cell > budget_bytes {
            passes.push(start..i);
            (start, bytes) = (i, 0);
        }
        bytes += cell;
    }
    if start < configs.len() {
        passes.push(start..configs.len());
    }
    passes
}

/// Runs `exhibit` against one plan: declare its cells, simulate them,
/// view.
fn run<T>(opts: &ExperimentOptions, exhibit: impl Fn(&mut Cells) -> T) -> T {
    let mut cells = Cells::default();
    exhibit(&mut cells);
    cells.simulate(opts);
    exhibit(&mut cells)
}

/// `make(row_bits, col_bits)` over every split of every tier in
/// `tiers` on `model`.
fn surface(
    cells: &mut Cells,
    scheme: &str,
    model: &Model,
    tiers: impl IntoIterator<Item = u32>,
    make: impl Fn(u32, u32) -> PredictorConfig,
) -> Surface {
    Surface::sweep_with(scheme, model.name(), tiers, make, |configs| {
        cells.results(model, configs)
    })
}

// ------------------------------------------------------------- Tables 1 & 2

fn table1_in(cells: &mut Cells) -> TextTable {
    let mut table = TextTable::new(
        [
            "benchmark",
            "paper dyn-instr",
            "paper dyn-cond",
            "paper static",
            "paper 90%",
            "model dyn-cond",
            "model static",
            "model 90%",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for model in cells.all() {
        let stats = cells.stats(&model);
        let paper = model.paper_reference();
        table.push_row(vec![
            model.name().to_owned(),
            paper.dynamic_instructions.to_string(),
            paper.dynamic_conditionals.to_string(),
            paper.static_conditionals.to_string(),
            paper.static_for_90.to_string(),
            stats.dynamic_conditionals.to_string(),
            stats.static_conditionals.to_string(),
            stats.static_for_90.to_string(),
        ]);
    }
    table
}

fn table2_in(cells: &mut Cells) -> TextTable {
    let mut table = TextTable::new(
        [
            "benchmark",
            "paper 50%",
            "paper 40%",
            "paper 9%",
            "paper 1%",
            "model 50%",
            "model 40%",
            "model 9%",
            "model 1%",
        ]
        .map(str::to_owned)
        .to_vec(),
    );
    for model in cells.focus() {
        let measured = cells.stats(&model).coverage;
        let paper = model
            .paper_reference()
            .table2
            .expect("focus benchmarks have Table 2 data");
        table.push_row(vec![
            model.name().to_owned(),
            paper.first_50.to_string(),
            paper.next_40.to_string(),
            paper.next_9.to_string(),
            paper.last_1.to_string(),
            measured.first_50.to_string(),
            measured.next_40.to_string(),
            measured.next_9.to_string(),
            measured.last_1.to_string(),
        ]);
    }
    table
}

/// Table 1: benchmark characterization, paper's published trace
/// numbers beside the synthetic model's measured statistics.
pub fn table1(opts: &ExperimentOptions) -> TextTable {
    run(opts, table1_in)
}

/// Table 2: branch execution-frequency buckets for the three focus
/// benchmarks, paper beside model.
pub fn table2(opts: &ExperimentOptions) -> TextTable {
    run(opts, table2_in)
}

// ------------------------------------------------------------ Figures 2 & 3

/// One benchmark's misprediction-rate series over table sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeSeries {
    /// Benchmark name.
    pub benchmark: String,
    /// `(log2 counters, result)` in increasing size order.
    pub points: Vec<(u32, SimResult)>,
}

fn size_sweep(
    cells: &mut Cells,
    opts: &ExperimentOptions,
    make: impl Fn(u32) -> PredictorConfig,
) -> Vec<SizeSeries> {
    let sizes: Vec<u32> = opts.tiers().collect();
    let configs: Vec<PredictorConfig> = sizes.iter().map(|&n| make(n)).collect();
    cells
        .all()
        .iter()
        .map(|model| SizeSeries {
            benchmark: model.name().to_owned(),
            points: sizes
                .iter()
                .copied()
                .zip(cells.results(model, &configs))
                .collect(),
        })
        .collect()
}

fn fig2_in(cells: &mut Cells, opts: &ExperimentOptions) -> Vec<SizeSeries> {
    size_sweep(cells, opts, |n| PredictorConfig::AddressIndexed {
        addr_bits: n,
    })
}

fn fig3_in(cells: &mut Cells, opts: &ExperimentOptions) -> Vec<SizeSeries> {
    size_sweep(cells, opts, |n| PredictorConfig::Gas {
        history_bits: n,
        col_bits: 0,
    })
}

/// Figure 2: address-indexed predictors over all fourteen benchmarks,
/// table sizes `2^min_bits ..= 2^max_bits`.
pub fn fig2(opts: &ExperimentOptions) -> Vec<SizeSeries> {
    run(opts, |cells| fig2_in(cells, opts))
}

/// Figure 3: GAg over all fourteen benchmarks.
pub fn fig3(opts: &ExperimentOptions) -> Vec<SizeSeries> {
    run(opts, |cells| fig3_in(cells, opts))
}

/// Renders Figure 2/3-style series as a table: one row per benchmark,
/// one column per size.
pub fn render_size_series(series: &[SizeSeries]) -> TextTable {
    let mut headers = vec!["benchmark".to_owned()];
    if let Some(first) = series.first() {
        headers.extend(first.points.iter().map(|(n, _)| format!("2^{n}")));
    }
    let mut table = TextTable::new(headers);
    for s in series {
        let mut row = vec![s.benchmark.clone()];
        row.extend(
            s.points
                .iter()
                .map(|(_, r)| percent(r.misprediction_rate())),
        );
        table.push_row(row);
    }
    table
}

// --------------------------------------------------------- Figures 4 — 10

/// One scheme's surfaces over the three focus benchmarks.
fn focus_surfaces(
    cells: &mut Cells,
    opts: &ExperimentOptions,
    scheme: Table3Scheme,
) -> Vec<Surface> {
    cells
        .focus()
        .iter()
        .map(|model| {
            surface(cells, &scheme.label(), model, opts.tiers(), |r, c| {
                scheme.config(r, c)
            })
        })
        .collect()
}

/// Figure 4 (and the misprediction layer of Figure 5): GAs surfaces
/// for the three focus benchmarks.
pub fn fig4(opts: &ExperimentOptions) -> Vec<Surface> {
    run(opts, |cells| focus_surfaces(cells, opts, Table3Scheme::Gas))
}

/// Figure 6: gshare surfaces for the three focus benchmarks.
pub fn fig6(opts: &ExperimentOptions) -> Vec<Surface> {
    run(opts, |cells| {
        focus_surfaces(cells, opts, Table3Scheme::Gshare)
    })
}

/// Figure 9: PAs surfaces with perfect first-level history for the
/// three focus benchmarks.
pub fn fig9(opts: &ExperimentOptions) -> Vec<Surface> {
    run(opts, |cells| {
        focus_surfaces(cells, opts, Table3Scheme::PasInfinite)
    })
}

/// The point-wise `other − GAs` difference on mpeg_play.
fn gas_difference(
    cells: &mut Cells,
    opts: &ExperimentOptions,
    other: &str,
    make: impl Fn(u32, u32) -> PredictorConfig,
) -> Vec<(u32, u32, f64)> {
    let mpeg_play = cells.model("mpeg_play");
    let gas = Table3Scheme::Gas;
    let base = surface(cells, "GAs", &mpeg_play, opts.tiers(), |r, c| {
        gas.config(r, c)
    });
    // base.rate - other.rate: positive = `other` superior.
    base.difference(&surface(cells, other, &mpeg_play, opts.tiers(), make))
}

fn fig7_in(cells: &mut Cells, opts: &ExperimentOptions) -> Vec<(u32, u32, f64)> {
    gas_difference(cells, opts, "gshare", |r, c| {
        Table3Scheme::Gshare.config(r, c)
    })
}

fn fig8_in(cells: &mut Cells, opts: &ExperimentOptions) -> Vec<(u32, u32, f64)> {
    gas_difference(cells, opts, "path", |r, c| PredictorConfig::Path {
        row_bits: r,
        col_bits: c,
        bits_per_target: 2,
    })
}

/// Figure 7: point-wise `gshare − GAs` misprediction difference on
/// mpeg_play. Positive values mean gshare predicted *better* (its rate
/// was lower), matching the paper's orientation.
pub fn fig7(opts: &ExperimentOptions) -> Vec<(u32, u32, f64)> {
    run(opts, |cells| fig7_in(cells, opts))
}

/// Figure 8: point-wise `path − GAs` difference on mpeg_play.
/// Positive values mean the path scheme predicted better.
pub fn fig8(opts: &ExperimentOptions) -> Vec<(u32, u32, f64)> {
    run(opts, |cells| fig8_in(cells, opts))
}

/// Renders a difference grid (Figures 7–8) as a table: one row per
/// tier, columns from address-indexed to single-column, values in
/// percentage points.
pub fn render_difference(diff: &[(u32, u32, f64)]) -> TextTable {
    let mut tiers: Vec<u32> = diff.iter().map(|&(r, c, _)| r + c).collect();
    tiers.sort_unstable();
    tiers.dedup();
    let max_total = tiers.last().copied().unwrap_or(0);
    let mut headers = vec!["counters".to_owned()];
    headers.extend((0..=max_total).map(|i| format!("c={}", max_total - i)));
    let mut table = TextTable::new(headers);
    for &total in &tiers {
        let mut row = vec![format!("2^{total}")];
        for col in (0..=total).rev() {
            let cell = diff
                .iter()
                .find(|&&(r, c, _)| r + c == total && c == col)
                .map(|&(_, _, d)| format!("{:+.2}", 100.0 * d))
                .unwrap_or_default();
            row.push(cell);
        }
        table.push_row(row);
    }
    table
}

fn fig10_in(cells: &mut Cells, opts: &ExperimentOptions, entries: &[usize]) -> Vec<Surface> {
    let mpeg_play = cells.model("mpeg_play");
    entries
        .iter()
        .map(|&e| {
            let scheme = Table3Scheme::PasFinite(e);
            surface(
                cells,
                &format!("PAs({e}x4)"),
                &mpeg_play,
                opts.tiers(),
                |r, c| scheme.config(r, c),
            )
        })
        .collect()
}

/// Figure 10: PAs surfaces on mpeg_play with finite 4-way first-level
/// tables of the given entry counts (paper: 128, 1024, 2048).
pub fn fig10(opts: &ExperimentOptions, entries: &[usize]) -> Vec<Surface> {
    run(opts, |cells| fig10_in(cells, opts, entries))
}

// ----------------------------------------------------------------- Table 3

/// The schemes compared in Table 3; Figures 4, 6, 9 and 10 sweep the
/// same schemes as surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table3Scheme {
    /// GAs at every split.
    Gas,
    /// gshare at every split.
    Gshare,
    /// PAs with unbounded first level.
    PasInfinite,
    /// PAs with a finite 4-way first level of the given entry count.
    PasFinite(usize),
}

impl Table3Scheme {
    /// The paper's row label.
    pub fn label(self) -> String {
        match self {
            Table3Scheme::Gas => "GAs".to_owned(),
            Table3Scheme::Gshare => "gshare".to_owned(),
            Table3Scheme::PasInfinite => "PAs(inf)".to_owned(),
            Table3Scheme::PasFinite(e) => format!("PAs({e})"),
        }
    }

    fn config(self, row_bits: u32, col_bits: u32) -> PredictorConfig {
        match self {
            Table3Scheme::Gas => PredictorConfig::Gas {
                history_bits: row_bits,
                col_bits,
            },
            Table3Scheme::Gshare => PredictorConfig::Gshare {
                history_bits: row_bits,
                col_bits,
            },
            Table3Scheme::PasInfinite => PredictorConfig::PasInfinite {
                history_bits: row_bits,
                col_bits,
            },
            Table3Scheme::PasFinite(entries) => PredictorConfig::PasFinite {
                history_bits: row_bits,
                col_bits,
                entries: entries as u32,
                ways: 4,
            },
        }
    }

    /// The default scheme list (the paper's rows).
    pub fn all() -> Vec<Table3Scheme> {
        vec![
            Table3Scheme::Gas,
            Table3Scheme::Gshare,
            Table3Scheme::PasInfinite,
            Table3Scheme::PasFinite(2048),
            Table3Scheme::PasFinite(1024),
            Table3Scheme::PasFinite(128),
        ]
    }
}

/// One Table 3 entry: the best configuration of a scheme at a fixed
/// counter budget.
#[derive(Debug, Clone, PartialEq)]
pub struct BestConfig {
    /// Row bits of the winning split.
    pub row_bits: u32,
    /// Column bits of the winning split.
    pub col_bits: u32,
    /// The winning run.
    pub result: SimResult,
}

/// Finds the best split of `scheme` at `2^total_bits` counters on a
/// trace source: the [best](crate::Tier::best) point of that one tier.
pub fn best_config<S: TraceSource + Sync + ?Sized>(
    scheme: Table3Scheme,
    total_bits: u32,
    source: &S,
) -> BestConfig {
    let surface = Surface::sweep(
        &scheme.label(),
        "",
        total_bits..=total_bits,
        source,
        Simulator::new(),
        |r, c| scheme.config(r, c),
    );
    let best = surface.tiers[0].best();
    BestConfig {
        row_bits: best.row_bits,
        col_bits: best.col_bits,
        result: best.result.clone(),
    }
}

fn table3_in(cells: &mut Cells, budgets: &[u32], schemes: &[Table3Scheme]) -> TextTable {
    let mut headers = vec![
        "benchmark".to_owned(),
        "predictor".to_owned(),
        "L1 miss".to_owned(),
    ];
    headers.extend(budgets.iter().map(|b| format!("{} counters", 1u64 << b)));
    let mut table = TextTable::new(headers);

    for model in cells.focus() {
        for &scheme in schemes {
            let mut row = vec![model.name().to_owned(), scheme.label(), String::new()];
            let mut miss_rate: Option<f64> = None;
            for &bits in budgets {
                let tier = surface(cells, "", &model, [bits], |r, c| scheme.config(r, c));
                let best = tier.tiers[0].best();
                if best.result.bht.is_some() && matches!(scheme, Table3Scheme::PasFinite(_)) {
                    miss_rate = Some(best.result.bht_miss_rate());
                }
                row.push(format!(
                    "2^{} x 2^{} ({})",
                    best.row_bits,
                    best.col_bits,
                    percent(best.rate())
                ));
            }
            row[2] = miss_rate.map(percent).unwrap_or_else(|| "-".to_owned());
            table.push_row(row);
        }
    }
    table
}

/// Table 3: best configuration and misprediction rate for each scheme
/// at each counter budget (paper: 512, 4096, 32768 ⇒ `total_bits` of
/// 9, 12, 15), for the three focus benchmarks. PAs rows include the
/// first-level miss rate.
pub fn table3(opts: &ExperimentOptions, budgets: &[u32], schemes: &[Table3Scheme]) -> TextTable {
    run(opts, |cells| table3_in(cells, budgets, schemes))
}

// --------------------------------------------------------- The whole paper

/// Every exhibit the `all` binary prints, each field equal to its
/// per-exhibit function at the same options.
#[derive(Debug, Clone, PartialEq)]
pub struct Paper {
    /// [`table1`].
    pub table1: TextTable,
    /// [`table2`].
    pub table2: TextTable,
    /// [`fig2`].
    pub fig2: Vec<SizeSeries>,
    /// [`fig3`].
    pub fig3: Vec<SizeSeries>,
    /// [`fig4`] (and Figure 5's aliasing layer).
    pub fig4: Vec<Surface>,
    /// [`fig6`].
    pub fig6: Vec<Surface>,
    /// [`fig7`].
    pub fig7: Vec<(u32, u32, f64)>,
    /// [`fig8`].
    pub fig8: Vec<(u32, u32, f64)>,
    /// [`fig9`].
    pub fig9: Vec<Surface>,
    /// [`fig10`] at the paper's 128, 1024 and 2048 entries.
    pub fig10: Vec<Surface>,
    /// [`table3`] over [`Table3Scheme::all`] at the paper's budgets
    /// (512, 4096 and 32,768 counters) that lie within the tiers.
    pub table3: TextTable,
}

/// Every exhibit in paper order, which is also the order the plan
/// declares their cells in.
fn paper_in(cells: &mut Cells, opts: &ExperimentOptions) -> Paper {
    let budgets: Vec<u32> = [9, 12, 15]
        .into_iter()
        .filter(|b| opts.tiers().contains(b))
        .collect();
    Paper {
        table1: table1_in(cells),
        table2: table2_in(cells),
        fig2: fig2_in(cells, opts),
        fig3: fig3_in(cells, opts),
        fig4: focus_surfaces(cells, opts, Table3Scheme::Gas),
        fig6: focus_surfaces(cells, opts, Table3Scheme::Gshare),
        fig7: fig7_in(cells, opts),
        fig8: fig8_in(cells, opts),
        fig9: focus_surfaces(cells, opts, Table3Scheme::PasInfinite),
        fig10: fig10_in(cells, opts, &[128, 1024, 2048]),
        table3: table3_in(cells, &budgets, &Table3Scheme::all()),
    }
}

/// The whole evaluation from one plan: every exhibit the `all` binary
/// prints, with each distinct `(workload, configuration)` cell
/// simulated once.
pub fn paper(opts: &ExperimentOptions) -> Paper {
    run(opts, |cells| paper_in(cells, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{self, tests::registry_lock, CellKey, ResultCache};
    use crate::run_configs;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn tiny() -> ExperimentOptions {
        ExperimentOptions {
            branches: Some(4_000),
            seed: 7,
            min_bits: 4,
            max_bits: 6,
        }
    }

    #[test]
    fn table1_covers_all_benchmarks() {
        let opts = ExperimentOptions {
            branches: Some(2_000),
            ..tiny()
        };
        let t = table1(&opts);
        assert_eq!(t.len(), 14);
        let text = t.render();
        assert!(text.contains("espresso"));
        assert!(text.contains("video_play"));
    }

    #[test]
    fn table2_covers_focus_benchmarks() {
        let t = table2(&tiny());
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("real_gcc"));
    }

    #[test]
    fn fig2_series_shapes() {
        let opts = ExperimentOptions {
            branches: Some(1_000),
            ..tiny()
        };
        let series = fig2(&opts);
        assert_eq!(series.len(), 14);
        for s in &series {
            assert_eq!(s.points.len(), 3); // 4..=6
        }
        let rendered = render_size_series(&series);
        assert_eq!(rendered.len(), 14);
    }

    #[test]
    fn fig4_produces_three_surfaces() {
        let surfaces = fig4(&tiny());
        assert_eq!(surfaces.len(), 3);
        assert_eq!(surfaces[0].workload, "espresso");
        assert_eq!(surfaces[0].tiers.len(), 3);
    }

    #[test]
    fn fig7_grid_covers_all_shapes() {
        let diff = fig7(&tiny());
        // Tiers 4..=6: 5 + 6 + 7 points.
        assert_eq!(diff.len(), 18);
        let rendered = render_difference(&diff);
        assert_eq!(rendered.len(), 3);
    }

    #[test]
    fn fig10_labels_bht_sizes() {
        let surfaces = fig10(&tiny(), &[128, 1024]);
        assert_eq!(surfaces.len(), 2);
        assert_eq!(surfaces[0].scheme, "PAs(128x4)");
        // The bigger first level can only help.
        let small = surfaces[0].tier(6).unwrap().best().rate();
        let large = surfaces[1].tier(6).unwrap().best().rate();
        assert!(large <= small + 0.02, "small {small}, large {large}");
    }

    #[test]
    fn best_config_is_min_over_splits() {
        let model = suite::espresso().scaled(4_000);
        let trace = model.trace(1);
        let best = best_config(Table3Scheme::Gshare, 6, &trace);
        assert_eq!(best.row_bits + best.col_bits, 6);
        // Exhaustive check against a manual sweep.
        for c in 0..=6u32 {
            let r = run_configs(
                &[PredictorConfig::Gshare {
                    history_bits: 6 - c,
                    col_bits: c,
                }],
                &trace,
                Simulator::new(),
            );
            assert!(best.result.misprediction_rate() <= r[0].misprediction_rate() + 1e-12);
        }
    }

    /// `tiny()` widened to tiers 4..=9, so Table 3 has its 512-counter
    /// budget.
    fn tiny_with_table3() -> ExperimentOptions {
        ExperimentOptions {
            branches: Some(2_000),
            max_bits: 9,
            ..tiny()
        }
    }

    #[test]
    fn paper_views_equal_the_standalone_exhibits() {
        for opts in [tiny(), tiny_with_table3()] {
            let paper = paper(&opts);
            let budgets: Vec<u32> = [9, 12, 15]
                .into_iter()
                .filter(|b| opts.tiers().contains(b))
                .collect();
            assert_eq!(paper.table1, table1(&opts));
            assert_eq!(paper.table2, table2(&opts));
            assert_eq!(paper.fig2, fig2(&opts));
            assert_eq!(paper.fig3, fig3(&opts));
            assert_eq!(paper.fig4, fig4(&opts));
            assert_eq!(paper.fig6, fig6(&opts));
            assert_eq!(paper.fig7, fig7(&opts));
            assert_eq!(paper.fig8, fig8(&opts));
            assert_eq!(paper.fig9, fig9(&opts));
            assert_eq!(paper.fig10, fig10(&opts, &[128, 1024, 2048]));
            assert_eq!(paper.table3, table3(&opts, &budgets, &Table3Scheme::all()));
        }
    }

    /// The plan `exhibit` declares, without simulating it.
    fn declared(exhibit: impl FnOnce(&mut Cells)) -> Vec<PlanWorkload> {
        let mut cells = Cells::default();
        exhibit(&mut cells);
        cells.plan
    }

    /// Lanes a plan replays, summed over its workloads.
    fn lanes(plan: &[PlanWorkload]) -> usize {
        plan.iter().map(|w| w.configs.len()).sum()
    }

    #[test]
    fn the_paper_plan_declares_each_cell_once() {
        let opts = tiny();
        let plan = declared(|cells| {
            paper_in(cells, &opts);
        });
        assert_eq!(plan.len(), 14);
        for w in &plan {
            let distinct: HashSet<_> = w.configs.iter().collect();
            assert_eq!(distinct.len(), w.configs.len(), "{}", w.model.name());
            assert!(w.stats, "{}", w.model.name());
        }
        // mpeg_play: Figure 2's sizes and seven surfaces (GAs, gshare,
        // path, PAs(inf) and PAs at three first-level sizes). Figure
        // 3's GAg points are GAs's single-column splits, and Figures 7
        // and 8 and Table 3 add nothing.
        let sizes = opts.tiers().count();
        let surface: usize = opts.tiers().map(|t| t as usize + 1).sum();
        let mpeg_play = plan.iter().find(|w| w.model.name() == "mpeg_play");
        assert_eq!(mpeg_play.unwrap().configs.len(), sizes + 7 * surface);
    }

    #[test]
    fn the_paper_plan_at_default_tiers_replays_2172_of_3054_lanes() {
        let opts = ExperimentOptions::default();
        let budgets = [9, 12, 15];
        // Each per-exhibit function plans its own cells.
        let separate = lanes(&declared(|c| drop(fig2_in(c, &opts))))
            + lanes(&declared(|c| drop(fig3_in(c, &opts))))
            + lanes(&declared(|c| {
                drop(focus_surfaces(c, &opts, Table3Scheme::Gas))
            }))
            + lanes(&declared(|c| {
                drop(focus_surfaces(c, &opts, Table3Scheme::Gshare))
            }))
            + lanes(&declared(|c| drop(fig7_in(c, &opts))))
            + lanes(&declared(|c| drop(fig8_in(c, &opts))))
            + lanes(&declared(|c| {
                drop(focus_surfaces(c, &opts, Table3Scheme::PasInfinite))
            }))
            + lanes(&declared(|c| drop(fig10_in(c, &opts, &[128, 1024, 2048]))))
            + lanes(&declared(|c| {
                drop(table3_in(c, &budgets, &Table3Scheme::all()));
            }));
        assert_eq!(separate, 3_054);
        assert_eq!(lanes(&declared(|c| drop(paper_in(c, &opts)))), 2_172);
    }

    fn gshare(history_bits: u32) -> PredictorConfig {
        PredictorConfig::Gshare {
            history_bits,
            col_bits: 0,
        }
    }

    #[test]
    fn passes_keep_order_respect_the_budget_and_isolate_oversize_cells() {
        // Packed bytes per cell: 8 << bits. The budget holds 2^10 counters.
        let budget = 8 << 10;
        let bits = [4, 9, 9, 12, 8, 8, 8, 8, 10, 0, 3, 11, 2];
        let configs: Vec<PredictorConfig> = bits.into_iter().map(gshare).collect();
        let split = passes(&configs, budget);
        let bytes = |pass: &Range<usize>| -> u64 {
            configs[pass.clone()].iter().map(|c| 8 * c.counters()).sum()
        };
        // Every cell in exactly one pass, in declaration order.
        let flat: Vec<usize> = split.iter().flat_map(|p| p.clone()).collect();
        assert_eq!(flat, (0..configs.len()).collect::<Vec<_>>());
        for (i, pass) in split.iter().enumerate() {
            assert!(!pass.is_empty());
            if pass.len() > 1 {
                assert!(bytes(pass) <= budget, "pass {pass:?} over budget");
            }
            // Greedy: the next cell would not have fit.
            if let Some(next) = split.get(i + 1) {
                assert!(bytes(pass) + 8 * configs[next.start].counters() > budget);
            }
        }
        // The 2^12 and 2^11 cells are over the budget and run alone.
        assert!(split.contains(&(3..4)));
        assert!(split.contains(&(11..12)));
        // A cell exactly at the budget fills a pass on its own.
        assert_eq!(
            split,
            vec![0..2, 2..3, 3..4, 4..8, 8..9, 9..11, 11..12, 12..13]
        );
        assert!(passes(&[], budget).is_empty());
        assert_eq!(passes(&[gshare(20)], budget), vec![0..1]);
    }

    #[test]
    fn paper_passes_stay_within_the_prefetch_gate() {
        let opts = ExperimentOptions::default();
        for w in declared(|c| drop(paper_in(c, &opts))) {
            for pass in passes(&w.configs, PREFETCH_SPILL_BYTES) {
                let bytes: u64 = w.configs[pass.clone()]
                    .iter()
                    .map(|c| 8 * c.counters())
                    .sum();
                assert!(pass.len() == 1 || bytes <= PREFETCH_SPILL_BYTES);
            }
        }
    }

    /// Counts stores of cells whose source id carries `marker`; other
    /// tests' sweeps may run while it is installed.
    struct CountingCache {
        map: Mutex<HashMap<String, SimResult>>,
        marker: String,
        puts: AtomicUsize,
    }

    impl ResultCache for CountingCache {
        fn get(&self, key: &CellKey) -> Option<SimResult> {
            self.map.lock().unwrap().get(&key.canonical()).cloned()
        }

        fn put(&self, key: &CellKey, result: &SimResult) {
            if key.source_id.contains(&self.marker) {
                self.puts.fetch_add(1, Ordering::Relaxed);
            }
            let mut map = self.map.lock().unwrap();
            map.insert(key.canonical(), result.clone());
        }
    }

    #[test]
    fn a_second_paper_run_computes_no_cell() {
        let _guard = registry_lock();
        let opts = ExperimentOptions {
            seed: 31_337,
            ..tiny()
        };
        let cache = Arc::new(CountingCache {
            map: Mutex::new(HashMap::new()),
            marker: format!("/s{}/", opts.seed),
            puts: AtomicUsize::new(0),
        });
        cache::install(cache.clone());
        let cold = paper(&opts);
        let computed = cache.puts.load(Ordering::Relaxed);
        let warm = paper(&opts);
        let recomputed = cache.puts.load(Ordering::Relaxed) - computed;
        cache::uninstall();
        assert_eq!(computed, lanes(&declared(|c| drop(paper_in(c, &opts)))));
        assert_eq!(recomputed, 0);
        assert_eq!(cold, warm);
    }

    #[test]
    fn table_statistics_come_from_the_stream_not_a_trace() {
        let opts = tiny();
        for model in suite::focus() {
            assert_eq!(
                TraceStats::measure_source(&opts.source(&model)),
                TraceStats::measure(&opts.trace(&model)),
                "{}",
                model.name()
            );
        }
    }

    #[test]
    fn table3_has_rows_per_benchmark_and_scheme() {
        let schemes = [Table3Scheme::Gas, Table3Scheme::PasFinite(128)];
        let t = table3(&tiny(), &[5], &schemes);
        assert_eq!(t.len(), 6); // 3 benchmarks x 2 schemes
        let text = t.render();
        assert!(text.contains("PAs(128)"));
        assert!(text.contains("32 counters"));
        // With no budget in range, every row still names its benchmark.
        let empty = table3(&tiny(), &[], &schemes).render();
        assert!(empty.contains("espresso") && empty.contains("real_gcc"));
    }
}
