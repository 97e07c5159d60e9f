//! `repro` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! repro             # everything, in the paper's section order
//! repro fig3        # one artifact (`repro --list` names them all)
//! repro --list      # print the artifact registry (names + aliases)
//! repro --json ...  # machine-readable, one JSON document per artifact
//! repro --jobs N .. # worker threads for the sweep grids (default: all
//!                   # cores; results are identical at any N)
//! ```
//!
//! Flags are accepted anywhere in argv: `repro fig3 --json` and
//! `repro --json fig3` are the same invocation.
//!
//! Each [`ARTIFACTS`] entry's `run` computes the experiment **once** and
//! returns a [`Render`] — text and JSON are two views of the same run,
//! never a recomputation.

use std::env;
use std::process::ExitCode;

use npu_experiments::{
    ablations, drive, drive_long, ext_sweeps, fig10, fig11, fig3, fig4, fig5to8, fig9, fleet, lint,
    scenario_dse, scenarios, table1, table2, table3, tails,
};
use npu_study::Render;

/// One renderable artifact of the paper reproduction.
struct Artifact {
    /// The canonical artifact name (also the golden-file name).
    name: &'static str,
    /// Other accepted spellings (`fig5`..`fig8` for the panel).
    aliases: &'static [&'static str],
    /// Computes the experiment and returns its renderings.
    run: fn() -> Box<dyn Render>,
}

/// The registry, in the paper's section order: `all`, `--list`, name
/// lookup (with aliases) and the error-message listing all read it.
static ARTIFACTS: [Artifact; 18] = [
    Artifact {
        name: "fig3",
        aliases: &[],
        run: || Box::new(fig3::run()),
    },
    Artifact {
        name: "fig4",
        aliases: &[],
        run: || Box::new(fig4::run()),
    },
    Artifact {
        name: "fig5to8",
        aliases: &["fig5", "fig6", "fig7", "fig8"],
        run: || Box::new(fig5to8::run()),
    },
    Artifact {
        name: "fig9",
        aliases: &[],
        run: || Box::new(fig9::run()),
    },
    Artifact {
        name: "table1",
        aliases: &[],
        run: || Box::new(table1::run()),
    },
    Artifact {
        name: "table2",
        aliases: &[],
        run: || Box::new(table2::run()),
    },
    Artifact {
        name: "fig10",
        aliases: &[],
        run: || Box::new(fig10::run()),
    },
    Artifact {
        name: "table3",
        aliases: &[],
        run: || Box::new(table3::run()),
    },
    Artifact {
        name: "fig11",
        aliases: &[],
        run: || Box::new(fig11::run()),
    },
    Artifact {
        name: "ablations",
        aliases: &[],
        run: || Box::new(ablations::run()),
    },
    Artifact {
        name: "sweeps",
        aliases: &[],
        run: || Box::new(ext_sweeps::run()),
    },
    Artifact {
        name: "scenarios",
        aliases: &[],
        run: || Box::new(scenarios::run()),
    },
    Artifact {
        name: "scenario-dse",
        aliases: &["scenario_dse"],
        run: || Box::new(scenario_dse::run()),
    },
    Artifact {
        name: "drive",
        aliases: &["drives", "drive-timelines"],
        run: || Box::new(drive::run()),
    },
    Artifact {
        name: "drive-long",
        aliases: &["long-drive", "drive_long"],
        run: || Box::new(drive_long::run()),
    },
    Artifact {
        name: "tails",
        aliases: &["tail", "tail-latency"],
        run: || Box::new(tails::run()),
    },
    Artifact {
        name: "fleet",
        aliases: &["fleet-dse", "tenants"],
        run: || Box::new(fleet::run()),
    },
    Artifact {
        name: "lint",
        aliases: &["lints", "check"],
        run: || Box::new(lint::run()),
    },
];

fn find(name: &str) -> Option<&'static Artifact> {
    ARTIFACTS
        .iter()
        .find(|a| a.name == name || a.aliases.contains(&name))
}

fn expected_names() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    format!("{} or all", names.join(", "))
}

/// One `--list --json` entry; the typed schema of the registry listing.
#[derive(serde::Serialize)]
struct ListedArtifact {
    name: String,
    aliases: Vec<String>,
}

/// The `--list` rendering: one artifact per line (text) or a JSON array
/// of [`ListedArtifact`] objects.
fn registry_listing(json: bool) -> String {
    if json {
        let entries: Vec<ListedArtifact> = ARTIFACTS
            .iter()
            .map(|a| ListedArtifact {
                name: a.name.to_string(),
                aliases: a.aliases.iter().map(|s| s.to_string()).collect(),
            })
            .collect();
        serde_json::to_string_pretty(&entries).expect("registry serializes")
    } else {
        ARTIFACTS
            .iter()
            .map(|a| {
                if a.aliases.is_empty() {
                    a.name.to_string()
                } else {
                    format!("{} (aliases: {})", a.name, a.aliases.join(", "))
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Parsed command-line flags; remaining `args` are artifact names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Flags {
    json: bool,
    jobs: Option<usize>,
    list: bool,
}

/// Extracts the flags (`--json`, `--list`, `--jobs N` / `--jobs=N`)
/// from **anywhere** in argv — `repro fig3 --json` works — leaving only
/// artifact names in `args`. Unknown `--flags` are an error rather than
/// being mistaken for artifact names. Pure: the caller applies the jobs
/// value to the executor.
fn parse_flags(args: &mut Vec<String>) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        if arg == "--json" {
            flags.json = true;
            args.remove(i);
        } else if arg == "--list" {
            flags.list = true;
            args.remove(i);
        } else if arg == "--jobs" {
            args.remove(i);
            let value = (i < args.len()).then(|| args.remove(i));
            flags.jobs = Some(parse_jobs(value.as_deref())?);
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            flags.jobs = Some(parse_jobs(Some(value))?);
            args.remove(i);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            i += 1;
        }
    }
    Ok(flags)
}

fn parse_jobs(value: Option<&str>) -> Result<usize, String> {
    let value = value.ok_or("--jobs expects a worker count".to_string())?;
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs expects a positive integer, got `{value}`")),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let flags = match parse_flags(&mut args) {
        Ok(flags) => {
            // Explicit N pins the worker-pool width; otherwise all
            // cores. Results are bit-identical either way (see npu-par).
            if let Some(jobs) = flags.jobs {
                npu_par::set_default_jobs(jobs);
            }
            flags
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if flags.list {
        // Refuse rather than silently dropping the named artifacts: a
        // scripted `repro fig3 --list` must not exit 0 without running
        // (or even mentioning) fig3.
        if !args.is_empty() {
            eprintln!("--list does not combine with artifact names (got {args:?})");
            return ExitCode::FAILURE;
        }
        println!("{}", registry_listing(flags.json));
        return ExitCode::SUCCESS;
    }
    if args.is_empty() {
        args.push("all".to_string());
    }

    // Resolve every name first, then run the list once: `all` and named
    // artifacts share one path, and output follows argv order whatever
    // order the workers finish in.
    let mut ok = true;
    let mut selected: Vec<&Artifact> = Vec::new();
    for arg in &args {
        if arg == "all" {
            selected.extend(&ARTIFACTS);
        } else if let Some(artifact) = find(arg) {
            selected.push(artifact);
        } else {
            eprintln!("unknown artifact `{arg}`; expected {}", expected_names());
            ok = false;
        }
    }
    let outputs = npu_par::par_map(&selected, |artifact| {
        // One computation, rendered in the requested format.
        let rendered = (artifact.run)();
        if flags.json {
            rendered.json() + "\n"
        } else {
            rendered.text()
        }
    });
    for output in outputs {
        print!("{output}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aliases_resolve_to_the_panel() {
        for alias in ["fig5", "fig6", "fig7", "fig8", "fig5to8"] {
            assert_eq!(find(alias).unwrap().name, "fig5to8");
        }
        assert_eq!(find("scenario_dse").unwrap().name, "scenario-dse");
        for alias in ["drives", "drive-timelines"] {
            assert_eq!(find(alias).unwrap().name, "drive");
        }
        for alias in ["long-drive", "drive_long"] {
            assert_eq!(find(alias).unwrap().name, "drive-long");
        }
        for alias in ["tail", "tail-latency"] {
            assert_eq!(find(alias).unwrap().name, "tails");
        }
        for alias in ["lints", "check"] {
            assert_eq!(find(alias).unwrap().name, "lint");
        }
        for alias in ["fleet-dse", "tenants"] {
            assert_eq!(find(alias).unwrap().name, "fleet");
        }
    }

    #[test]
    fn unknown_names_do_not_resolve() {
        assert!(find("fig12").is_none());
        assert!(find("all").is_none(), "`all` is expanded, not an artifact");
    }

    #[test]
    fn expected_names_lists_every_artifact() {
        let listing = expected_names();
        for a in &ARTIFACTS {
            assert!(listing.contains(a.name));
        }
    }

    #[test]
    fn registry_names_and_aliases_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in &ARTIFACTS {
            assert!(seen.insert(a.name), "duplicate name {}", a.name);
            for alias in a.aliases {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
        }
    }

    #[test]
    fn listing_covers_the_registry_in_both_formats() {
        let text = registry_listing(false);
        assert_eq!(text.lines().count(), ARTIFACTS.len());
        assert!(text.contains("fig5to8 (aliases: fig5, fig6, fig7, fig8)"));
        let json = registry_listing(true);
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let entries = parsed.as_array().expect("a JSON array");
        assert_eq!(entries.len(), ARTIFACTS.len());
        assert_eq!(
            entries[0].get("name").and_then(|v| v.as_str()),
            Some("fig3")
        );
    }

    #[test]
    fn flags_parse_in_any_order() {
        let mut args: Vec<String> = ["--jobs", "2", "--json", "fig3"].map(String::from).to_vec();
        assert_eq!(
            parse_flags(&mut args),
            Ok(Flags {
                json: true,
                jobs: Some(2),
                list: false
            })
        );
        assert_eq!(args, vec!["fig3".to_string()]);

        let mut args: Vec<String> = ["--json", "--jobs=4"].map(String::from).to_vec();
        assert_eq!(
            parse_flags(&mut args),
            Ok(Flags {
                json: true,
                jobs: Some(4),
                list: false
            })
        );
        assert!(args.is_empty());

        let mut args: Vec<String> = ["fig3".to_string()].to_vec();
        assert_eq!(parse_flags(&mut args), Ok(Flags::default()));
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn flags_are_accepted_after_artifact_names() {
        // The ISSUE 4 parse fix: `repro fig3 --json` used to treat
        // `--json` as an unknown artifact.
        let mut args: Vec<String> = ["fig3", "--json"].map(String::from).to_vec();
        let flags = parse_flags(&mut args).unwrap();
        assert!(flags.json);
        assert_eq!(args, vec!["fig3".to_string()]);

        let mut args: Vec<String> = ["fig3", "--jobs", "3", "table1", "--list"]
            .map(String::from)
            .to_vec();
        let flags = parse_flags(&mut args).unwrap();
        assert_eq!(flags.jobs, Some(3));
        assert!(flags.list);
        assert_eq!(args, vec!["fig3".to_string(), "table1".to_string()]);
    }

    #[test]
    fn unknown_flags_error_out() {
        let mut args: Vec<String> = ["fig3", "--frobnicate"].map(String::from).to_vec();
        let err = parse_flags(&mut args).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn malformed_jobs_flags_error_out() {
        assert!(parse_flags(&mut vec!["--jobs".to_string()]).is_err());
        assert!(parse_flags(&mut vec!["--jobs".to_string(), "0".to_string()]).is_err());
        assert!(parse_flags(&mut vec!["--jobs=notanumber".to_string()]).is_err());
        // A trailing `--jobs` after an artifact name still errors.
        assert!(parse_flags(&mut vec!["fig3".to_string(), "--jobs".to_string()]).is_err());
    }
}
