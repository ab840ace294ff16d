//! Minimal fixed-width table rendering for experiment output, and the
//! one serializer behind every `BENCH_<experiment>.json` trajectory.

/// A printable results table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table (used for the
    /// paper-expectation commentary).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

/// Formats a byte count as a human-readable size.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Formats a bandwidth in GB/s.
pub fn gbps(bytes: u64, seconds: f64) -> String {
    format!("{:.2}", bytes as f64 / seconds.max(1e-12) / 1e9)
}

/// One typed value of a trajectory row.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    /// A JSON string.
    Str(&'a str),
    /// An integer count.
    Int(u64),
    /// A float printed at a fixed number of decimals.
    Float(f64, usize),
    /// `true` or `false`.
    Bool(bool),
}

/// One trajectory row: `(field name, value)` pairs in print order.
pub(crate) type Fields<'a> = Vec<(&'static str, Cell<'a>)>;

/// Renders a trajectory file body: the experiment and metric names, then
/// one JSON object per row on its own line.
pub(crate) fn trajectory_json<'a>(
    experiment: &str,
    metric: &str,
    rows: impl IntoIterator<Item = Fields<'a>>,
) -> String {
    let mut s = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"metric\": \"{metric}\",\n  \"rows\": [\n"
    );
    let mut rows = rows.into_iter().peekable();
    while let Some(row) = rows.next() {
        let cells: Vec<String> = row
            .into_iter()
            .map(|(name, cell)| match cell {
                Cell::Str(v) => format!("\"{name}\": {v:?}"),
                Cell::Int(v) => format!("\"{name}\": {v}"),
                Cell::Float(v, decimals) => format!("\"{name}\": {v:.decimals$}"),
                Cell::Bool(v) => format!("\"{name}\": {v}"),
            })
            .collect();
        let comma = if rows.peek().is_some() { "," } else { "" };
        s.push_str(&format!("    {{{}}}{comma}\n", cells.join(", ")));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes `BENCH_<experiment>.json`, the [`trajectory_json`] of `fields`
/// of each of `rows`, and notes the outcome under `t`; whether it was.
pub(crate) fn write_trajectory<'a, R>(
    t: &mut Table,
    experiment: &str,
    metric: &str,
    rows: &'a [R],
    fields: impl Fn(&'a R) -> Fields<'a>,
) -> bool {
    let path = format!("BENCH_{experiment}.json");
    let body = trajectory_json(experiment, metric, rows.iter().map(fields));
    let written = std::fs::write(&path, body);
    t.note(match &written {
        Ok(()) => format!("trajectory written to {path}"),
        Err(e) => format!("could not write {path}: {e}"),
    });
    written.is_ok()
}

/// The data cells of a [`Table::render`]ed table, row by row (the
/// experiments' cells hold no spaces): what the figure tests assert the
/// paper's orderings on.
#[cfg(test)]
pub(crate) fn rendered_rows(rendered: &str) -> Vec<Vec<&str>> {
    rendered
        .lines()
        .skip_while(|l| !l.starts_with('-'))
        .skip(1)
        .take_while(|l| !l.starts_with("note:"))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["nodes", "GB/s"]);
        t.row(vec!["4".into(), "1.92".into()]);
        t.row(vec!["48".into(), "22.01".into()]);
        t.note("peak expected near 48 nodes");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("nodes"));
        assert!(s.contains("22.01"));
        assert!(s.contains("note: peak"));
    }

    #[test]
    fn trajectory_json_pins_every_cell_type() {
        let row = |name, n, x, ok| -> Fields<'static> {
            vec![
                ("name", Cell::Str(name)),
                ("n", Cell::Int(n)),
                ("x", Cell::Float(x, 4)),
                ("bw", Cell::Float(x * 1e6, 0)),
                ("ok", Cell::Bool(ok)),
            ]
        };
        let rows = vec![row("io: a/b @16", 16, 1.25, true), row("x", 0, 0.1, false)];
        assert_eq!(
            trajectory_json("demo", "some_metric", rows),
            "{\n  \"experiment\": \"demo\",\n  \"metric\": \"some_metric\",\n  \"rows\": [\n    \
             {\"name\": \"io: a/b @16\", \"n\": 16, \"x\": 1.2500, \"bw\": 1250000, \"ok\": true},\n    \
             {\"name\": \"x\", \"n\": 0, \"x\": 0.1000, \"bw\": 100000, \"ok\": false}\n  ]\n}\n"
        );
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(92 << 30), "92.0 GiB");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
