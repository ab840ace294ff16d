//! Timed regions and the outside-in trace.
//!
//! A [`Region`] brackets the timed part of a pass on both clocks. A
//! [`Tracer`] records one span around each call the benchmark makes into
//! a layer — from the benchmark's side of the call; nothing is recorded
//! inside the library crates. Spans live in memory and are written out
//! once, when the run ends.

use crate::api::Comm;
use crate::host;
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;

/// Brackets the timed region of one world. The gate is a `std` barrier
/// because it must not allocate: the allocation counter opens between
/// its two waits, while every rank is parked, so the count covers the
/// region exactly and repeats exactly.
pub struct Region {
    gate: Barrier,
    epoch: Instant,
}

/// One rank's entry mark.
pub struct Mark {
    v0: f64,
    h0: f64,
}

/// One rank's measurement of the region: virtual seconds elapsed on its
/// clock and host seconds (since the region's epoch) at entry and exit.
#[derive(Debug, Clone, Copy)]
pub struct RankTiming {
    pub virtual_s: f64,
    pub h0: f64,
    pub h1: f64,
}

impl Region {
    pub fn new(ranks: usize) -> Region {
        Region {
            gate: Barrier::new(ranks),
            epoch: Instant::now(),
        }
    }

    /// Host seconds since this region was created.
    pub fn host_now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Collective over the world: aligns the virtual clocks with a
    /// barrier, opens the allocation counter, and marks both clocks.
    pub fn enter(&self, comm: &mut Comm) -> Mark {
        comm.barrier();
        if self.gate.wait().is_leader() {
            host::open_region();
        }
        self.gate.wait();
        Mark {
            v0: comm.now(),
            h0: self.host_now(),
        }
    }

    /// Collective over the world: marks both clocks, then closes the
    /// allocation counter once every rank has left the region. Returns
    /// the rank's timing and, on every rank, the region's `(allocation
    /// calls, bytes)`.
    pub fn exit(&self, comm: &mut Comm, mark: Mark) -> (RankTiming, (u64, u64)) {
        let t = RankTiming {
            virtual_s: comm.now() - mark.v0,
            h0: mark.h0,
            h1: self.host_now(),
        };
        // Every rank closes the counter as the first thing it does after
        // the gate, so whichever wakes first closes it before any rank
        // can allocate again, and all of them read the same totals.
        self.gate.wait();
        (t, host::close_region())
    }
}

/// Whole-region numbers from the per-rank timings: virtual seconds are
/// the maximum over ranks (the paper's §5.2 rule), host seconds run from
/// the first rank's entry to the last rank's exit.
pub fn region_totals(timings: &[RankTiming]) -> (f64, f64) {
    let virtual_s = timings.iter().map(|t| t.virtual_s).fold(0.0, f64::max);
    let h0 = timings.iter().map(|t| t.h0).fold(f64::INFINITY, f64::min);
    let h1 = timings.iter().map(|t| t.h1).fold(0.0, f64::max);
    (virtual_s, h1 - h0)
}

/// One call into a layer, seen from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, e.g. `read_partition_text`.
    pub name: &'static str,
    /// Layer (repo module) the call enters, e.g. `core.partition`.
    pub layer: &'static str,
    pub rank: usize,
    /// Index, on this rank, of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Virtual seconds on the rank's clock.
    pub v0: f64,
    pub v1: f64,
    /// Host seconds since the region's epoch.
    pub h0: f64,
    pub h1: f64,
    /// Counts taken at the same boundary.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn virtual_s(&self) -> f64 {
        self.v1 - self.v0
    }

    pub fn host_s(&self) -> f64 {
        self.h1 - self.h0
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Per-rank span recorder. Switched off it runs the closure and nothing
/// else, so the untraced passes share their code with the traced one.
pub struct Tracer<'a> {
    region: Option<&'a Region>,
    rank: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl<'a> Tracer<'a> {
    pub fn new(region: &'a Region, rank: usize, on: bool) -> Tracer<'a> {
        Tracer {
            region: on.then_some(region),
            rank,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing (set-up code outside any pass).
    pub fn off(rank: usize) -> Tracer<'a> {
        Tracer {
            region: None,
            rank,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.region.is_some()
    }

    /// Runs `f` inside a span (when tracing is on).
    pub fn span<R>(
        &mut self,
        comm: &mut Comm,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Comm, &mut Tracer<'a>) -> R,
    ) -> R {
        let Some(region) = self.region else {
            return f(comm, self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            rank: self.rank,
            parent: self.open.last().copied(),
            v0: comm.now(),
            v1: 0.0,
            h0: region.host_now(),
            h1: 0.0,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(comm, self);
        self.open.pop();
        self.spans[id].v1 = comm.now();
        self.spans[id].h1 = region.host_now();
        out
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key, value));
        }
    }
}

/// Aggregates over the spans of one traced pass, kept per rank (a
/// span's `parent` indexes its own rank's list).
pub struct SpanSet<'a> {
    ranks: &'a [Vec<Span>],
}

impl<'a> SpanSet<'a> {
    pub fn new(ranks: &'a [Vec<Span>]) -> SpanSet<'a> {
        SpanSet { ranks }
    }

    pub fn len(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// Per rank, the sum of `f` over the spans `(layer, name)`.
    pub fn per_rank(&self, layer: &str, name: &str, f: impl Fn(&Span) -> f64) -> Vec<f64> {
        self.ranks
            .iter()
            .map(|spans| {
                spans
                    .iter()
                    .filter(|s| s.layer == layer && s.name == name)
                    .map(&f)
                    .sum()
            })
            .collect()
    }

    /// Max over ranks of the per-rank summed virtual seconds.
    pub fn virtual_max(&self, layer: &str, name: &str) -> f64 {
        max(self.per_rank(layer, name, Span::virtual_s))
    }

    /// Mean over ranks of the per-rank summed virtual seconds.
    pub fn virtual_mean(&self, layer: &str, name: &str) -> f64 {
        self.per_rank(layer, name, Span::virtual_s)
            .iter()
            .sum::<f64>()
            / self.ranks.len().max(1) as f64
    }

    /// Max over ranks of the per-rank summed host seconds.
    pub fn host_max(&self, layer: &str, name: &str) -> f64 {
        max(self.per_rank(layer, name, Span::host_s))
    }

    /// Sum over all ranks and spans of one count.
    pub fn count_sum(&self, layer: &str, name: &str, key: &str) -> f64 {
        self.per_rank(layer, name, |s| s.count(key)).iter().sum()
    }

    /// Max over ranks of the per-rank summed count.
    pub fn count_max(&self, layer: &str, name: &str, key: &str) -> f64 {
        max(self.per_rank(layer, name, |s| s.count(key)))
    }

    /// Number of spans `(layer, name)` on rank 0.
    pub fn calls(&self, layer: &str, name: &str) -> f64 {
        self.per_rank(layer, name, |_| 1.0)
            .first()
            .copied()
            .unwrap_or(0.0)
    }

    /// Share of the root (`bench`) spans' virtual time that their child
    /// spans cover — one minus the roots' self time — over all ranks.
    pub fn coverage_frac(&self) -> f64 {
        let (mut total, mut covered) = (0.0, 0.0);
        for spans in self.ranks {
            for s in spans {
                match s.parent {
                    None if s.layer == "bench" => total += s.virtual_s(),
                    Some(p) if spans[p].layer == "bench" => covered += s.virtual_s(),
                    _ => {}
                }
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }

    /// Chrome-trace JSON (opens in Perfetto / `chrome://tracing`): `ts`
    /// and `dur` are virtual microseconds, one track per rank; host
    /// microseconds, the parent span and the counts ride in `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for rank in 0..self.ranks.len() {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{rank},\"args\":{{\"name\":\"rank {rank}\"}}}},"
            );
        }
        let mut first = true;
        for s in self.ranks.iter().flatten() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"workload\":\"{workload}\",\"parent\":{},\"host_start_us\":{:.1},\"host_dur_us\":{:.1}",
                s.name,
                s.layer,
                s.rank,
                s.v0 * 1e6,
                s.virtual_s() * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.h0 * 1e6,
                s.host_s() * 1e6,
            );
            // Counts under one key add up (`Span::count`); print each once.
            for (i, (k, _)) in s.counts.iter().enumerate() {
                if s.counts[..i].iter().all(|(seen, _)| seen != k) {
                    let _ = write!(out, ",\"{k}\":{}", s.count(k));
                }
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

fn max(values: Vec<f64>) -> f64 {
    values.into_iter().fold(0.0, f64::max)
}
