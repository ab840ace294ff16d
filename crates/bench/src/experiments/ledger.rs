//! Where a scenario's virtual seconds go: every rank's clock over a
//! stream, split into the [`Ledger`]'s slots. `repro ledger` prints two
//! tables and writes them to `docs/LEDGER.md`: the batched query stream
//! of the serve experiment (cache off) at 16 and 64 ranks, and the
//! rebalanced update stream of the rebalance experiment at 16 ranks.
//!
//! Not a paper figure. The paper reports each phase as its maximum over
//! ranks (§5.2); this is the same rule one level down, for the scenarios
//! where most ranks mostly wait: it shows how much of a serve call, or of
//! an update batch with its rebalance decision and migration, is work
//! and how much is waiting at collectives for the busiest rank.

use super::{rebalance, serve, Scale};
use mvio_msim::{Ledger, Slot};

/// Rank counts of the serve table's two column pairs.
const RANKS: [usize; 2] = [16, 64];

/// Rank count of the rebalance table's column pair.
const REBALANCE_RANKS: usize = 16;

/// Where `repro ledger` writes the table, relative to the working
/// directory.
const OUT: &str = "docs/LEDGER.md";

/// Seconds a rank spent working rather than waiting.
fn busy(l: &Ledger) -> f64 {
    Slot::ALL
        .iter()
        .filter(|s| !s.is_wait())
        .map(|&s| l[s])
        .sum()
}

/// The busiest rank's ledger (most [`busy`] seconds; the lowest rank on
/// a tie), which the others wait for, and the per-slot mean over ranks.
fn busiest_and_mean(ledgers: &[Ledger]) -> (Ledger, Ledger) {
    let busiest = ledgers.iter().fold(
        Ledger::default(),
        |a, l| if busy(l) > busy(&a) { *l } else { a },
    );
    let mut mean = Ledger::default();
    let n = ledgers.len().max(1) as f64;
    for l in ledgers {
        for slot in Slot::ALL {
            mean.book(slot, l[slot] / n);
        }
    }
    (busiest, mean)
}

/// The ledger document: the serve table, then the rebalance table.
fn render(
    scale: Scale,
    serve: &[(usize, Ledger, Ledger)],
    rebalance: &[(usize, Ledger, Ledger)],
) -> String {
    let mut md = String::from("# Ledger\n\n");
    md.push_str(&format!(
        "Generated by `repro ledger` (scale 1/{}); do not edit by hand.\n\n",
        scale.denominator
    ));
    md.push_str("## Serve\n\n");
    md.push_str(
        "The serve experiment's batched stream (1 024 Zipf range/point/kNN \
         queries per rank in calls of 128, cache off, over 600 clustered \
         features): each rank's virtual milliseconds from the first serve \
         call to the last, split by what moved its clock (`mvio_msim::Ledger`). \
         The time base is the simulator's clock at this scale, the one \
         `BENCH_serve.json` reports too. The slots of every rank sum to \
         its clock, so each column's total is that rank's \
         (or the mean rank's) time. The busiest rank is the one with the \
         most seconds outside the three waits: the rank the others wait \
         for at each call's collectives.\n\n",
    );
    md.push_str(&table(serve));
    md.push_str("\n## Rebalance\n\n");
    md.push_str(
        "The rebalance experiment's `rebalanced` stream (2 048 uniform base \
         points, then 8 steps of 256 point inserts in a moving hotspot, each \
         deleted again 2 steps later, with a rebalance check at threshold 1.5 \
         after every step): each rank's virtual milliseconds from the first \
         update batch to the last check, split as above. The time base is \
         again the simulator's clock, as in `BENCH_rebalance.json`. The \
         histogram allreduce, the re-bisection and the migration are \
         inside the stream.\n\n",
    );
    md.push_str(&table(rebalance));
    md
}

/// One ledger table as Markdown: one row per slot, then the total; a
/// busiest-rank and a mean column per rank count.
fn table(columns: &[(usize, Ledger, Ledger)]) -> String {
    let mut header = String::from("| slot |");
    let mut rule = String::from("|---|");
    for (ranks, _, _) in columns {
        header.push_str(&format!(" {ranks} ranks: busiest | {ranks} ranks: mean |"));
        rule.push_str("---:|---:|");
    }
    let mut md = format!("{header}\n{rule}\n");
    let ms = |s: f64| format!("{:.4}", s * 1e3);
    for slot in Slot::ALL {
        md.push_str(&format!("| `{}` |", slot.name()));
        for (_, busiest, mean) in columns {
            md.push_str(&format!(" {} | {} |", ms(busiest[slot]), ms(mean[slot])));
        }
        md.push('\n');
    }
    md.push_str("| **total** |");
    for (_, busiest, mean) in columns {
        md.push_str(&format!(
            " **{}** | **{}** |",
            ms(busiest.total()),
            ms(mean.total())
        ));
    }
    md.push('\n');
    md
}

/// Runs both scenarios at their rank counts, writes `docs/LEDGER.md`,
/// and returns the tables. `quick` keeps every rank count: the tables
/// are the point.
pub fn run(scale: Scale, _quick: bool) -> String {
    let serve: Vec<(usize, Ledger, Ledger)> = RANKS
        .iter()
        .map(|&ranks| {
            let (busiest, mean) = busiest_and_mean(&serve::batched_ledgers(scale, ranks));
            (ranks, busiest, mean)
        })
        .collect();
    let ledgers = rebalance::rebalanced_ledgers(scale, REBALANCE_RANKS);
    let (busiest, mean) = busiest_and_mean(&ledgers);
    let md = render(scale, &serve, &[(REBALANCE_RANKS, busiest, mean)]);
    let written = std::fs::create_dir_all("docs").and_then(|()| std::fs::write(OUT, &md));
    let note = match written {
        Ok(()) => format!("ledger written to {OUT}"),
        Err(e) => format!("could not write {OUT}: {e}"),
    };
    format!("{md}\n{note}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_busiest_keep_the_slots_summing_to_the_total() {
        let mut a = Ledger::default();
        a.book(Slot::MbrTests, 2.0);
        a.book(Slot::CollectiveWait, 3.0);
        let mut b = Ledger::default();
        b.book(Slot::MbrTests, 4.0);
        b.book(Slot::Io, 0.5);
        let (busiest, mean) = busiest_and_mean(&[a, b]);
        assert_eq!(busiest, b);
        let (b, m) = (busiest, mean);
        assert_eq!(mean.total(), (a.total() + b.total()) / 2.0);
        let doc = render(Scale::default_repro(), &[(16, b, m)], &[(16, b, m)]);
        assert!(doc.contains("## Serve\n") && doc.contains("## Rebalance\n"));
        let md = table(&[(16, busiest, mean)]);
        assert!(
            md.contains("| `mbr_tests` | 4000.0000 | 3000.0000 |"),
            "{md}"
        );
        assert!(
            md.contains("| **total** | **4500.0000** | **4750.0000** |"),
            "{md}"
        );
    }
}
