//! Integration tests for the `fuzzydedup` command-line binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fuzzydedup"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fuzzydedup-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn demo_table1_is_perfect() {
    let out = bin().args(["--demo", "table1"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recall=1.000 precision=1.000"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Header + 14 rows, group_id column appended.
    assert_eq!(stdout.lines().count(), 15);
    assert!(stdout.lines().next().unwrap().ends_with("group_id"));
    // The two Doors rows share a group id.
    let doors: Vec<&str> = stdout.lines().filter(|l| l.contains("LA Woman")).collect();
    assert_eq!(doors.len(), 2);
    let gid = |line: &str| line.rsplit(',').next().unwrap().to_string();
    assert_eq!(gid(doors[0]), gid(doors[1]));
}

#[test]
fn csv_roundtrip_with_gold_column() {
    let input = temp_path("input.csv");
    std::fs::write(
        &input,
        "name,entity\n\
         the doors,A\n\
         the doorz,A\n\
         xylophone concerto,B\n\
         xylophone concertoo,B\n\
         aaliyah,C\n\
         bob dylan,D\n",
    )
    .unwrap();
    let output = temp_path("output.csv");
    let out = bin()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--gold-column",
            "1",
            "--distance",
            "ed",
            "--k",
            "4",
            "--output",
            output.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("vs gold labels"), "{stderr}");

    let written = std::fs::read_to_string(&output).unwrap();
    assert_eq!(written.lines().count(), 7);
    let rows: Vec<&str> = written.lines().collect();
    assert!(rows[0].ends_with("group_id"));
    let gid = |line: &str| line.rsplit(',').next().unwrap().to_string();
    assert_eq!(gid(rows[1]), gid(rows[2]), "doors pair grouped");
    assert_eq!(gid(rows[3]), gid(rows[4]), "xylophone pair grouped");
    assert_ne!(gid(rows[5]), gid(rows[6]));
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

#[test]
fn stdin_input_works() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = bin()
        .args(["--input", "-", "--no-header", "--distance", "ed", "--k", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"golden dragon\ngolden dragoon\nunrelated thing\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 4, "header + 3 rows: {stdout}");
}

#[test]
fn report_flag_prints_groups() {
    let out = bin().args(["--demo", "table1", "--report"]).output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("# Deduplication report"), "{stderr}");
    assert!(stderr.contains("diameter"), "{stderr}");
}

#[test]
fn metrics_flag_emits_run_metrics_json() {
    let out = bin().args(["--demo", "table1", "--metrics"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // One line of stderr is the RunMetrics JSON document; stdout stays
    // pure CSV.
    let json = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in stderr: {stderr}"));
    for section in
        ["\"textdist\"", "\"nnindex\"", "\"storage\"", "\"phase1\"", "\"phase2\"", "\"timings_ns\""]
    {
        assert!(json.contains(section), "missing {section} in {json}");
    }
    assert!(json.contains("\"tuples\": 14"), "table1 has 14 records: {json}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains('{'), "stdout must stay CSV-only");
}

#[test]
fn dup_fraction_derives_threshold() {
    let out = bin().args(["--demo", "restaurants", "--dup-fraction", "0.4"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("derived SN threshold"), "{stderr}");
    assert!(!stderr.contains("warning"), "the demo has over 100 records: {stderr}");

    // Under 100 records the NG distribution is too thin: one warning line,
    // in one piece.
    let out = bin().args(["--demo", "table1", "--dup-fraction", "0.4"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warning = stderr.lines().find(|l| l.starts_with("warning: --dup-fraction")).expect("warns");
    assert!(warning.ends_with("14 records is likely too few (consider --c instead)"), "{warning}");
    assert!(!warning.contains("  "), "a run of spaces mid-sentence: {warning:?}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["--unknown-flag"],
        vec!["--demo", "nonexistent"],
        vec!["--input", "/definitely/not/a/file.csv"],
        vec![], // missing --input/--demo
        vec!["--demo", "table1", "--gold-column", "99"],
        vec!["--demo", "table1", "--distance", "nope"],
        vec!["--demo", "table1", "--k", "4", "--theta", "0.3"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
    // A fraction outside [0, 1] is refused, not clamped into a threshold.
    for value in ["NaN", "1.5"] {
        let args = ["--demo", "restaurants", "--dup-fraction", value];
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--dup-fraction"), "args {args:?}: {stderr}");
    }
    // Names that are not (or are no longer) accepted: exit 1 with an error
    // that lists the accepted ones, on both subcommands.
    for cmd in [vec![], vec!["replay"]] {
        for (flag, value, accepted) in [
            ("--distance", "cosine", "(want ed | fms)"),
            ("--distance", "jw", "(want ed | fms)"),
            ("--collapse", "exact-fields", "(want record-string)"),
        ] {
            let mut args = cmd.clone();
            args.extend(["--demo", "table1", flag, value]);
            let out = bin().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "args {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(accepted), "args {args:?}: {stderr}");
        }
    }
}

#[test]
fn gold_column_is_never_matched_on() {
    let input = temp_path("gold_overlap.csv");
    std::fs::write(&input, "name,city,entity\nthe doors,la,A\nthe doorz,la,A\naaliyah,ny,B\n")
        .unwrap();
    let run = |columns: &str| {
        let path = input.to_str().unwrap();
        bin().args(["--input", path, "--columns", columns, "--gold-column", "2"]).output().unwrap()
    };
    // Matching on the gold labels would score the run against itself.
    let out = run("0,2");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--columns") && stderr.contains("--gold-column"), "{stderr}");
    assert!(out.stdout.is_empty(), "no partition is written");
    let out = run("0,1");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&input).ok();
}

#[test]
fn replay_passes_sizes_as_given_so_zero_is_the_services_error() {
    let out = bin().args(["replay", "--demo", "table1", "--queue-capacity", "0"]).output().unwrap();
    let want = "invalid service configuration: queue_capacity must be >= 1\n";
    assert_eq!((out.status.success(), String::from_utf8_lossy(&out.stderr)), (false, want.into()));
}

#[test]
fn removed_pair_cache_flag_is_unknown_and_prints_usage() {
    // There is no pair-distance memo, so neither subcommand takes a flag
    // for one; and the service admits its whole backlog as one epoch, so
    // `replay` takes no batch size.
    for args in [
        vec!["--demo", "table1", "--pair-cache-capacity", "1024"],
        vec!["replay", "--demo", "table1", "--pair-cache-capacity", "1024"],
        vec!["replay", "--demo", "table1", "--batch-size", "32"],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(stderr.contains(&format!("unknown argument {flag:?}")), "{stderr}");
        assert!(stderr.contains("usage: fuzzydedup"), "{stderr}");
    }
}

#[test]
fn demo_rejects_columns_alike_on_both_subcommands() {
    // One parser: `replay` used to accept the combination the batch command
    // rejects, and the batch message carried a run of 21 spaces.
    let [batch, replay] = [vec![], vec!["replay"]].map(|mut args| {
        args.extend(["--demo", "table1", "--columns", "0"]);
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        String::from_utf8_lossy(&out.stderr).into_owned()
    });
    assert_eq!(replay, batch);
    assert!(batch.starts_with("--gold-column/--columns do not apply to --demo"), "{batch}");
    assert!(!batch.contains("  "), "a run of spaces mid-sentence: {batch:?}");
}

#[test]
fn each_subcommand_takes_its_own_flags_and_prints_its_own_usage() {
    for (args, usage) in [
        (vec!["--demo", "table1", "--queue-capacity", "8"], "usage: fuzzydedup --input"),
        (vec!["replay", "--demo", "table1", "--threads", "2"], "usage: fuzzydedup replay"),
        (vec!["replay", "--demo", "table1", "--gold-column", "0"], "usage: fuzzydedup replay"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "args {args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument {:?}", args[args.len() - 2])),
            "{stderr}"
        );
        assert!(stderr.contains(usage), "{stderr}");
    }
    // A flag that takes a value says so when it is last.
    let out = bin().args(["replay", "--demo", "table1", "--seed"]).output().unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stderr).trim(), "missing value for --seed");
}

#[test]
fn a_row_wider_than_the_header_is_reported() {
    let input = temp_path("wide.csv");
    std::fs::write(&input, "a,b\n1\n\n1,2,3\n").unwrap();
    let out = bin().args(["--input", input.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 4 has 3 fields, the header has 2"), "{stderr}");
    // Short rows are still padded, and without a header the widest row
    // sets the width.
    std::fs::write(&input, "a,b\n1\n1,2\n").unwrap();
    let out = bin().args(["--input", input.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::write(&input, "1\n1,2,3\n").unwrap();
    let out = bin().args(["--input", input.to_str().unwrap(), "--no-header"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("col0,col1,col2,group_id\n"));
    std::fs::remove_file(&input).ok();
}

#[test]
fn malformed_csv_is_reported() {
    let input = temp_path("bad.csv");
    std::fs::write(&input, "name\n\"unterminated\n").unwrap();
    let out = bin().args(["--input", input.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unterminated"), "{stderr}");
    std::fs::remove_file(&input).ok();
}

#[test]
fn input_and_demo_are_mutually_exclusive_on_both_subcommands() {
    // `--demo` used to win silently: the demo was deduplicated and the
    // named file never read.
    let input = temp_path("ignored.csv");
    std::fs::write(&input, "name\nthe doors\n").unwrap();
    for cmd in [vec![], vec!["replay"]] {
        let mut args = cmd.clone();
        args.extend(["--input", input.to_str().unwrap(), "--demo", "org"]);
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim(), "--input and --demo are mutually exclusive", "args {args:?}");
        assert!(out.stdout.is_empty(), "no partition is written");
    }
    std::fs::remove_file(&input).ok();
}

#[test]
fn io_errors_name_what_failed() {
    use std::io::Write;
    use std::process::Stdio;
    let output = temp_path("no-such-dir").join("x.csv");
    let path = output.to_str().unwrap();
    let out = bin().args(["--demo", "table1", "--output", path]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("cannot write {path}: ")), "{stderr}");
    // Bytes that are not UTF-8 on stdin.
    let mut child = bin()
        .args(["--input", "-", "--no-header"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"caf\xe9\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("cannot read stdin: "), "{stderr}");
    // A file that is not UTF-8 and a directory, as `--input` of both
    // subcommands: a clean exit 1 naming the path, never a panic's 101.
    let latin1 = temp_path("latin1.csv");
    std::fs::write(&latin1, b"name\ncaf\xe9\n").unwrap();
    let dir = temp_path("a-directory");
    std::fs::create_dir_all(&dir).unwrap();
    for input in [&latin1, &dir] {
        let input = input.to_str().unwrap();
        for subcommand in [&[][..], &["replay"][..]] {
            let out = bin().args(subcommand).args(["--input", input]).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{subcommand:?} --input {input}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(&format!("cannot read {input}: ")), "{stderr}");
        }
    }
    std::fs::remove_file(&latin1).ok();
    std::fs::remove_dir(&dir).ok();
}
