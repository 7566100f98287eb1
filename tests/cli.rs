//! The `pas` binary end to end: its exit status and streams.

use std::process::{Command, Output, Stdio};

fn pas(args: &[&str], stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pas"))
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("pas runs")
}

/// A reader that has gone away before `pas` writes (`pas list | head -1`
/// once `head` exits) costs `pas` its output, not a broken-pipe panic:
/// it still exits 0 and says nothing on stderr.
#[test]
fn closed_stdout_exits_quietly() {
    for args in [
        &["list"][..],
        &["show", "paper-default"],
        &["expand", "paper-default"],
        &["--help"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = pas(args, writer.into());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "pas {args:?}: {:?} {stderr}",
            out.status
        );
        assert!(stderr.is_empty(), "pas {args:?}: {stderr}");
    }
}

/// An argument the subcommand does not read fails the command, and the
/// error names it.
#[test]
fn unread_arguments_fail() {
    for (args, offender) in [
        (&["list", "x"][..], "`x`"),
        (&["show", "a", "b"], "`b`"),
        (&["validate", "FILE", "extra"], "`extra`"),
        (
            &["expand", "paper-default", "--threads", "4"],
            "`--threads`",
        ),
        (&["bench", "--gate", "--profile", "FILE"], "--profile"),
        (
            &["bench", "--predictors", "--max-clients", "3"],
            "--max-clients",
        ),
        (&["bench", "--dist", "2", "--predictors"], "--predictors"),
        (&["bench", "--queue"], "--queue"),
    ] {
        let out = pas(args, Stdio::piped());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "pas {args:?}: {stderr}");
        assert!(stderr.contains(offender), "pas {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "pas {args:?} printed to stdout");
    }
}
