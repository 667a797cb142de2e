//! Order statistics, the report every workload fills, and process memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// One measured value with its unit and how many samples it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run produced: metrics plus the operation tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result (one fact each).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Insert `name` only if no earlier layer replay defined it.
    pub fn set_default(&mut self, name: &str, m: &Metric) {
        self.metrics
            .entry(name.to_owned())
            .or_insert_with(|| m.clone());
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `checked` verified outputs of which `wrong` mismatched.
    pub fn tally(&mut self, checked: u64, wrong: u64) {
        self.attempted += checked;
        self.failed += wrong;
    }
}

/// Render a metric value for JSON: finite numbers keep every digit.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// The last line of stdout: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(report: &Report, names: &[(&str, &str)]) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = report
            .metrics
            .get(*name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!("metric {name} measured in {} not {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(m.value)
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// System-wide vCPU time from the first line of `/proc/stat`, in clock
/// ticks: time spent running anything, and time the hypervisor ran other
/// guests while this one wanted the CPU (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnapshot {
    busy: u64,
    steal: u64,
}

pub fn cpu_snapshot() -> CpuSnapshot {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else {
        return CpuSnapshot::default();
    };
    let f: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    let get = |i: usize| f.get(i).copied().unwrap_or(0);
    CpuSnapshot {
        // user nice system idle iowait irq softirq steal
        busy: get(0) + get(1) + get(2) + get(5) + get(6),
        steal: get(7),
    }
}

impl CpuSnapshot {
    /// A note on host load since `self`: the share of the vCPU time this
    /// guest wanted that the hypervisor gave to other guests instead,
    /// steal / (busy + steal). Printed only; no measured time is adjusted.
    pub fn steal_note(self) -> String {
        let now = cpu_snapshot();
        let busy = now.busy.saturating_sub(self.busy) as f64;
        let steal = now.steal.saturating_sub(self.steal) as f64;
        let share = if busy + steal == 0.0 {
            0.0
        } else {
            steal / (busy + steal)
        };
        format!(
            "host steal over the run: {share:.3} of the vCPU time the guest wanted (/proc/stat)"
        )
    }
}
