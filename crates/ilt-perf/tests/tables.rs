//! Tier-1 leg for `ilt tables`: every selector runs through the library
//! entry point at miniature size (one case, K = 3, smoke budgets, 1 rep), so
//! a runner that stops compiling, panics at a small grid or loses a row
//! fails `cargo test` instead of rotting outside the workspace.

use std::path::PathBuf;

use ilt_perf::published::{self, PublishedRow};
use ilt_perf::tables::{run, TablesConfig};
use ilt_perf::MeasureConfig;

fn config(grid: usize, max_eff_nm: f64, case: Option<usize>, out: PathBuf) -> TablesConfig {
    TablesConfig {
        grid,
        kernels: 3,
        max_eff_nm,
        case,
        measure: MeasureConfig { smoke: true, reps: 1 },
        out,
    }
}

fn try_run(selectors: &[&str], cfg: &TablesConfig) -> Result<String, String> {
    let selectors: Vec<String> = selectors.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    run(&selectors, cfg, &mut buf).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(buf).expect("markdown is UTF-8"))
}

fn render(selectors: &[&str], grid: usize, max_eff_nm: f64, case: usize) -> String {
    let out = std::env::temp_dir().join(format!(
        "ilt_tables_{}_{grid}_{}",
        std::process::id(),
        selectors.join("_")
    ));
    let cfg = config(grid, max_eff_nm, Some(case), out.clone());
    let md = try_run(selectors, &cfg).unwrap_or_else(|e| panic!("{selectors:?} at {grid}: {e}"));
    if selectors.contains(&"all") {
        for dump in [
            "fig1_ours_mask.pgm",
            "fig5_sigmoid_curves.csv",
            "fig7_region_option2.pgm",
            "fig8_wafer.pgm",
        ] {
            assert!(out.join(dump).is_file(), "{dump} was not written");
        }
    }
    let _ = std::fs::remove_dir_all(&out);
    md
}

/// The lines under the `### ` heading that starts with `title`.
fn block<'a>(markdown: &'a str, title: &str) -> Vec<&'a str> {
    let mut lines = markdown.lines().skip_while(|l| !l.starts_with(&format!("### {title}")));
    assert!(lines.next().is_some(), "no block headed {title:?} in:\n{markdown}");
    lines.take_while(|l| !l.starts_with("### ")).filter(|l| !l.is_empty()).collect()
}

/// Checks a markdown table (header row, rule, `rows` data rows) and returns
/// the data rows' cells; every cell after the first must be a finite number.
fn table_cells(lines: &[&str], header: &str, rows: usize) -> Vec<Vec<String>> {
    let table: Vec<&str> = lines.iter().copied().filter(|l| l.starts_with('|')).collect();
    assert!(table[0].starts_with(header), "header row {:?} != {header:?}", table[0]);
    assert!(table[1].starts_with("|---"), "no rule under the header: {:?}", table[1]);
    assert_eq!(table.len() - 2, rows, "data rows in {table:#?}");
    table[2..]
        .iter()
        .map(|row| row.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect())
        .inspect(|cells: &Vec<String>| {
            for cell in &cells[1..] {
                let v: f64 = cell.trim_end_matches('x').parse().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "cell {cell:?} of row {cells:?} is not a finite number");
            }
        })
        .collect()
}

/// The "paper-reported averages" lines must be `published::average` of the
/// constants, to the printed precision.
fn check_paper_averages(lines: &[&str], paper: &[(&str, &[PublishedRow; 10])]) {
    let at = lines.iter().position(|l| l.starts_with("paper-reported averages")).expect("averages");
    assert_eq!(lines.len() - at - 1, paper.len(), "one line per published method");
    for (line, (label, table)) in lines[at + 1..].iter().zip(paper) {
        let tok: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            (tok[0], tok[1], tok[3], tok[5], tok[7]),
            (*label, "L2", "PVB", "#shots", "TAT")
        );
        let check = |i: usize, column: fn(&PublishedRow) -> f64, half_ulp: f64| {
            let printed: f64 = tok[i].trim_end_matches('s').parse().expect("number");
            let want = published::average(table, column);
            assert!((printed - want).abs() <= half_ulp + 1e-9, "{label}: {} vs {want}", tok[i]);
        };
        check(2, |r| r.l2, 0.05);
        check(4, |r| r.pvb, 0.05);
        check(6, |r| r.shots, 0.05);
        check(8, |r| r.tat, 0.005);
    }
}

/// Lines of a figure block that start with two spaces and contain `needle`.
fn rows_with<'a>(lines: &[&'a str], needle: &str) -> Vec<&'a str> {
    lines.iter().copied().filter(|l| l.starts_with("  ") && l.contains(needle)).collect()
}

#[test]
fn every_selector_runs_at_grid_64() {
    let md = render(&["all"], 64, 8.0, 1);
    let mut head = md.lines();
    assert_eq!(
        head.next(),
        Some("# ilt tables all --grid 64 --kernels 3 --max-eff-nm 8 --case 1 --smoke --reps 1")
    );
    let stamp = head.next().expect("stamp line");
    assert!(stamp.starts_with("# rev ") && stamp.contains(", simd "), "stamp line {stamp:?}");
    assert!(!md.contains("NaN") && !md.contains("inf"), "non-finite metric in:\n{md}");

    // Table I: at the default 8 nm ceiling a 64-px grid clamps to s = 1, and
    // the table must say that rows 2 and 3 are one run, not an ablation.
    let t1 = block(&md, "Table I —");
    let cells = table_cells(&t1, "| variant | L2 (nm^2) | PVB (nm^2) | #shots | TAT (s) |", 3);
    assert_eq!(cells[1][1..4], cells[2][1..4], "s = 1: high-res is the no-downsampling run");
    assert!(t1.contains(&"s clamped to 1 at this grid: rows 2 and 3 are the same run"));
    assert!(!t1.iter().any(|l| l.contains("speedup")));

    for (title, first, paper) in [
        (
            "Table II —",
            "conv-ilt",
            &[
                ("Neural-ILT", &published::NEURAL_ILT_T2),
                ("A2-ILT", &published::A2_ILT_T2),
                ("Our-fast", &published::OUR_FAST_T2),
                ("Our-exact", &published::OUR_EXACT_T2),
            ][..],
        ),
        (
            "Table III —",
            "levelset",
            &[
                ("GLS-ILT", &published::GLS_ILT_T3),
                ("DevelSet", &published::DEVELSET_T3),
                ("Our-fast", &published::OUR_FAST_T3),
                ("Our-exact", &published::OUR_EXACT_T3),
            ][..],
        ),
        (
            "Table IV —",
            "conv-ilt",
            &[
                ("Neural-ILT", &published::NEURAL_ILT_T4),
                ("Our-fast", &published::OUR_FAST_T4),
                ("Our-exact", &published::OUR_EXACT_T4),
            ][..],
        ),
    ] {
        let lines = block(&md, title);
        let header = format!("| case | {first} L2 | PVB | EPE | #shots | TAT(s) | our-fast L2 |");
        let cells = table_cells(&lines, &header, 2);
        assert_eq!((cells[0][0].as_str(), cells[1][0].as_str()), ("1", "avg"));
        assert_eq!(cells[0].len(), 1 + 3 * 5, "five columns per method");
        check_paper_averages(&lines, paper);
    }

    assert_eq!(rows_with(&block(&md, "Figure 1 —"), "components").len(), 2);
    assert_eq!(rows_with(&block(&md, "Figure 4 —"), "SRAF components").len(), 2);
    assert_eq!(rows_with(&block(&md, "Figure 5 —"), "grad at M'=0").len(), 1);
    assert_eq!(rows_with(&block(&md, "Figure 6 —"), "#shots").len(), 2);
    assert_eq!(rows_with(&block(&md, "Figure 7 —"), "#shots").len(), 2);
    let f8 = block(&md, "Figure 8 —");
    assert_eq!(rows_with(&f8, "vias printed").len(), 15);
    assert_eq!(rows_with(&f8, "worst clip: via").len(), 1);
    let ablation = block(&md, "Ablations —");
    assert_eq!(ablation.iter().filter(|l| l.starts_with("-- ")).count(), 7);
    assert_eq!(rows_with(&ablation, "#shots").len(), 20);

    // The bug found while sizing: at grid 64 no reduced grid holds the
    // 57-px kernel support, so Eq. 7 / Eq. 8 are reported as not applicable
    // instead of panicking in the simulator.
    let timing = block(&md, "Forward-simulation timing");
    let rows: Vec<&str> = timing.iter().copied().filter(|l| l.starts_with("| Eq.")).collect();
    assert_eq!(rows.len(), 3);
    assert!(rows[0].starts_with("| Eq. 3 (full, N = 64) | ") && rows[0].ends_with("| 1.0x |"));
    for row in &rows[1..] {
        assert!(row.ends_with("| n/a at this grid (N/2 < P) | n/a |"), "{row}");
    }
}

#[test]
fn table1_and_timing_are_real_ablations_once_a_reduced_grid_fits() {
    // 16 nm pixels under a 32 nm ceiling: s = 2, and 128 / 2 = 64 >= P = 57.
    let md = render(&["table1", "timing"], 128, 32.0, 1);
    let t1 = block(&md, "Table I — downsampling ablation on case1 (2 iters, lr = 1, s = 2)");
    table_cells(&t1, "| variant |", 3);
    assert_eq!(t1.iter().filter(|l| l.contains("speedup over")).count(), 2);
    assert!(!md.contains("same run"));
    let timing = block(&md, "Forward-simulation timing");
    let cells = table_cells(&timing, "| variant | ms per run | speedup vs Eq. 3 |", 3);
    assert!(cells[1][0].starts_with("Eq. 7") && cells[2][0].starts_with("Eq. 8"));
    assert!(cells.iter().all(|c| c[0].contains("N = 128") || c[0].contains("s = 2")));
}

#[test]
fn extended_cases_and_bad_requests() {
    let md = render(&["table4"], 64, 8.0, 11);
    assert_eq!(table_cells(&block(&md, "Table IV —"), "| case |", 2)[0][0], "11");

    let rejected = |selectors: &[&str], case: Option<usize>| {
        let cfg = config(64, 8.0, case, std::env::temp_dir());
        try_run(selectors, &cfg).expect_err("must be rejected")
    };
    assert!(rejected(&["table2"], Some(21)).contains("case ids are 1..=10"));
    assert!(rejected(&[], None).starts_with("usage: ilt tables <table1|table2|"));
    assert!(rejected(&["table5"], None).starts_with("unknown selector table5"));
}
