//! `eaao` — command-line front end to the experiment registry, the
//! campaign engine and the campaign daemon.
//!
//! ```text
//! eaao repro [EXPERIMENT ...]   regenerate the paper's tables and figures
//! eaao campaign                 run an experiment grid, streaming JSONL
//! eaao serve | submit | shutdown   the streaming campaign daemon
//! eaao trace FILE               summarize a `--trace` file
//! eaao help                     every command with its flags
//! ```
//!
//! Every experiment is a row of the registry
//! (`eaao_campaign::registry::EXPERIMENTS`), and every command that runs
//! one runs a campaign. Each command declares the flags it takes: an
//! unknown flag, a value flag without its value or a stray argument exits
//! 2 and names the argument. `help`, `--help` and `-h` print usage to
//! stdout and exit 0.
//!
//! `eaao repro` regenerates the paper's tables and figures. Its
//! experiments are registry rows; `all`, the default, is the paper suite
//! `fig4 … factors`. Each selected experiment runs once per paper region
//! (`us-west1` alone with `--quick`), seeded from `--seed` and the run
//! key. After the run, stdout gets each record's render in grid order.
//! The campaign's `results.jsonl`, `manifest.jsonl` and `campaign.json`
//! go to `--out DIR` (default `repro-campaign/`). `--jobs N` only sets
//! the worker count: stdout and those files are the same at any N,
//! `wall_ms` aside. `--quick` swaps in the reduced-scale configurations
//! used by tests.
//!
//! `repro` and `campaign` print progress and a closing summary to stderr
//! and exit 1 if any run fails. `--trace FILE` streams structured
//! span/metrics events to `FILE` as JSONL (see `docs/OBSERVABILITY.md`).

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use eaao::campaign::spec::KNOWN_REGIONS;
use eaao::prelude::*;

/// One subcommand: its name, what it does, the arguments it takes and
/// the function that runs it.
struct Command {
    name: &'static str,
    about: &'static str,
    /// Positional arguments as usage shows them: `""` for none, a trailing
    /// `...]` for any number, otherwise exactly one.
    positionals: &'static str,
    /// The flags as usage shows them. The parser accepts exactly these:
    /// `--name WORD` takes a value, a bare `--name` is a switch.
    flags: &'static str,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "repro",
        about: "regenerate the paper's tables and figures (default: all)",
        positionals: "[EXPERIMENT ...]",
        flags: "[--seed N] [--out DIR] [--jobs N] [--trace FILE] [--quick]",
        run: repro,
    },
    Command {
        name: "campaign",
        about: "run an experiment grid in parallel, streaming JSONL to --out",
        positionals: "",
        flags: "(--spec FILE | --experiments LIST) [--regions LIST] [--platforms LIST]\n\
                [--verifiers LIST] [--seeds N] [--seed N] [--out DIR] [--jobs N]\n\
                [--trace FILE] [--quick] [--resume]",
        run: campaign,
    },
    Command {
        name: "serve",
        about: "run the streaming campaign daemon (docs/SERVICE.md)",
        positionals: "",
        flags: "[--addr A] [--metrics-addr A] [--jobs N] [--out DIR]\n\
                [--max-pending N] [--dispatchers N]",
        run: serve,
    },
    Command {
        name: "submit",
        about: "submit a campaign to a daemon, streaming records to stdout",
        positionals: "",
        flags: "(--spec FILE | --experiments LIST) [--regions LIST] [--platforms LIST]\n\
                [--verifiers LIST] [--seeds N] [--seed N] [--addr A] [--out NAME]\n\
                [--quick] [--quiet]",
        run: submit,
    },
    Command {
        name: "shutdown",
        about: "ask a daemon to drain and exit",
        positionals: "",
        flags: "[--addr A]",
        run: shutdown,
    },
    Command {
        name: "trace",
        about: "summarize a JSONL trace file",
        positionals: "FILE",
        flags: "",
        run: trace,
    },
];

fn main() {
    let mut raw = std::env::args().skip(1);
    let Some(name) = raw.next() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("eaao: unknown command {name:?}");
        eprint!("{}", usage());
        std::process::exit(2);
    };
    (command.run)(&Args::parse(command, raw));
}

/// Usage text: every command with its arguments, then the registry rows.
fn usage() -> String {
    let mut text = String::from("usage: eaao <command> [arguments]\n\ncommands:\n");
    for command in COMMANDS {
        text += &format!("  {:<9} {}\n", command.name, command.about);
        let arguments = format!("{} {}", command.positionals, command.flags);
        for line in arguments.trim().lines() {
            text += &format!("            {line}\n");
        }
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    text += &format!(
        "  help      print this message\n\nexperiments: {} (repro also takes all: the paper suite)\n",
        names.join(" ")
    );
    text
}

/// Whether `flags` declares `flag`: `Some(true)` if it takes a value,
/// `Some(false)` for a switch.
fn declared(flags: &str, flag: &str) -> Option<bool> {
    let mut words = flags
        .split(|c: char| c.is_whitespace() || "[]()|".contains(c))
        .filter(|word| !word.is_empty());
    words.find(|word| *word == flag)?;
    Some(words.next().is_some_and(|word| !word.starts_with("--")))
}

/// A command line checked against its command's declared arguments.
struct Args {
    command: &'static Command,
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `raw` for `command`, exiting 2 on anything it does not
    /// declare and 0 after printing usage for `--help`/`-h`.
    fn parse(command: &'static Command, mut raw: impl Iterator<Item = String>) -> Args {
        let name = command.name;
        let mut args = Args {
            command,
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        while let Some(arg) = raw.next() {
            if arg == "--help" || arg == "-h" {
                print!("{}", usage());
                std::process::exit(0);
            }
            match declared(command.flags, &arg) {
                _ if !arg.starts_with("--") => args.positionals.push(arg),
                None => die(&format!("{name}: unknown flag {arg:?}")),
                Some(false) => args.switches.push(arg),
                Some(true) => match raw.next().filter(|v| !v.starts_with("--")) {
                    Some(value) => args.values.push((arg, value)),
                    None => die(&format!("{name}: {arg} needs a value")),
                },
            }
        }
        let wanted = command.positionals;
        if !wanted.ends_with("...]") {
            let max = usize::from(!wanted.is_empty());
            if let Some(extra) = args.positionals.get(max) {
                die(&format!("{name}: unexpected argument {extra:?}"));
            }
            if args.positionals.len() < max {
                die(&format!("{name} needs a {wanted} argument"));
            }
        }
        args
    }

    /// The value of `flag`, the last one if it was repeated.
    fn value(&self, flag: &str) -> Option<&str> {
        debug_assert!(declared(self.command.flags, flag) == Some(true));
        let last = self.values.iter().rev().find(|(name, _)| name == flag);
        last.map(|(_, value)| value.as_str())
    }

    /// Whether switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        debug_assert!(declared(self.command.flags, flag) == Some(false));
        self.switches.iter().any(|name| name == flag)
    }

    /// `flag` parsed as a `T`, or `default` when it is absent.
    fn parse_or<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.value(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{flag} got an invalid value {v:?}")))
        })
    }
}

fn die(msg: &str) -> ! {
    eprintln!("eaao: {msg}");
    std::process::exit(2);
}

/// Runs `campaign` with a progress line per finished run and a closing
/// summary on stderr; `each` sees every record as it finishes.
fn run_campaign(campaign: &Campaign, mut each: impl FnMut(&RunRecord)) -> CampaignReport {
    let started = Instant::now();
    let report = campaign
        .run_with_progress(|done, total, record| {
            let status = if record.is_ok() { "ok" } else { "FAILED" };
            eprintln!(
                "[{done:>4}/{total}] {status:>6}  {}  ({:.1} s)",
                record.key,
                record.wall_ms / 1e3
            );
            each(record);
        })
        .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
    eprintln!(
        "{}: {} runs ({} resumed, {} executed, {} failed) in {:.1?} -> {}",
        report.name,
        report.total,
        report.resumed,
        report.executed,
        report.failed,
        started.elapsed(),
        campaign.out_dir().join("results.jsonl").display()
    );
    report
}

/// Exits 1 unless every run succeeded, so scripts can gate on the status.
fn exit_unless(ok: bool) {
    if !ok {
        std::process::exit(1);
    }
}

fn repro(args: &Args) {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for name in &args.positionals {
        if name == "all" {
            selected.extend(Experiment::paper_suite());
        } else {
            let Some(experiment) = Experiment::find(name) else {
                let unknown = SpecError::UnknownExperiment(name.clone());
                die(&format!("{unknown} all"));
            };
            selected.push(experiment);
        }
    }
    if selected.is_empty() {
        selected.extend(Experiment::paper_suite());
    }
    let quick = args.switch("--quick");
    let regions: &[&str] = if quick { &["us-west1"] } else { &KNOWN_REGIONS };
    let spec = CampaignSpec {
        name: "repro".to_owned(),
        // Registry order, each experiment once.
        experiments: EXPERIMENTS
            .iter()
            .filter(|e| selected.contains(e))
            .map(|e| e.name.to_owned())
            .collect(),
        regions: regions.iter().map(|r| (*r).to_owned()).collect(),
        seed: args.parse_or("--seed", 2_024),
        quick,
        ..CampaignSpec::default()
    };
    let campaign = Campaign::new(spec, args.value("--out").unwrap_or("repro-campaign"))
        .jobs(args.parse_or("--jobs", NonZeroUsize::MIN).get())
        .trace(args.value("--trace").map(PathBuf::from));
    let mut records: Vec<RunRecord> = Vec::new();
    run_campaign(&campaign, |record| records.push(record.clone()));
    records.sort_by_key(|record| record.index);

    let mut rendered = true;
    for record in &records {
        let experiment =
            Experiment::find(&record.experiment).expect("records name registry experiments");
        println!("\n=== {} ({}) ===", experiment.title, record.region);
        let text = match (&record.payload, &record.error) {
            (Some(payload), None) => {
                (experiment.render)(payload).map_err(|e| format!("cannot render the payload: {e}"))
            }
            (_, error) => Err(error.clone().unwrap_or_default()),
        };
        match text {
            Ok(text) => print!("{text}"),
            Err(error) => {
                rendered = false;
                println!("  FAILED: {error}");
            }
        }
    }
    exit_unless(rendered);
}

/// The campaign named by `--spec FILE` or `--experiments LIST`, refined
/// by the axis flags (a flag wins over the file). Exits 2 if it is
/// invalid.
fn campaign_spec(args: &Args) -> CampaignSpec {
    let mut spec = match args.value("--spec") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read spec {path:?}: {e}")));
            CampaignSpec::from_json(&text)
                .unwrap_or_else(|e| die(&format!("bad spec {path:?}: {e}")))
        }
        None if args.value("--experiments").is_none() => die(&format!(
            "{} needs --spec FILE or --experiments a,b,c",
            args.command.name
        )),
        None => CampaignSpec::default(),
    };
    for (flag, axis) in [
        ("--experiments", &mut spec.experiments),
        ("--regions", &mut spec.regions),
        ("--platforms", &mut spec.platforms),
        ("--verifiers", &mut spec.verifiers),
    ] {
        if let Some(list) = args.value(flag) {
            *axis = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect();
        }
    }
    spec.seeds = args.parse_or("--seeds", spec.seeds);
    spec.seed = args.parse_or("--seed", spec.seed);
    spec.quick |= args.switch("--quick");
    spec.validate()
        .unwrap_or_else(|e| die(&format!("invalid campaign: {e}")));
    spec
}

fn campaign(args: &Args) {
    let spec = campaign_spec(args);
    let out_dir = args
        .value("--out")
        .map_or_else(|| format!("campaign-{}", spec.name), str::to_owned);
    let campaign = Campaign::new(spec, out_dir)
        .jobs(args.parse_or("--jobs", NonZeroUsize::MIN).get())
        .resume(args.switch("--resume"))
        .trace(args.value("--trace").map(PathBuf::from));
    exit_unless(run_campaign(&campaign, |_| {}).all_ok());
}

/// Default protocol address shared by `serve`, `submit`, and `shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:4780";

fn serve(args: &Args) {
    let defaults = ServeConfig::default();
    let jobs = NonZeroUsize::new(defaults.jobs).expect("the default worker count is positive");
    let config = ServeConfig {
        addr: args.value("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
        metrics_addr: args.value("--metrics-addr").map(str::to_owned),
        jobs: args.parse_or("--jobs", jobs).get(),
        out_root: args
            .value("--out")
            .map_or(defaults.out_root.clone(), PathBuf::from),
        max_pending: args.parse_or("--max-pending", defaults.max_pending),
        dispatchers: args.parse_or("--dispatchers", defaults.dispatchers),
        ..defaults
    };
    let server = Server::start(config).unwrap_or_else(|e| die(&format!("cannot start: {e}")));
    println!("eaao-serve listening on {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics scrape endpoint on {addr}");
    }
    server
        .wait()
        .unwrap_or_else(|e| die(&format!("daemon failed: {e}")));
    println!("eaao-serve drained and stopped");
}

fn submit(args: &Args) {
    let spec = campaign_spec(args);
    let addr = args.value("--addr").unwrap_or(DEFAULT_ADDR);
    let spec_json =
        serde_json::to_string(&spec).unwrap_or_else(|e| die(&format!("spec serialization: {e}")));
    let quiet = args.switch("--quiet");
    let client =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")));
    let outcome = client
        .submit(&spec_json, args.value("--out"), |record| {
            // One record per line, exactly as the daemon streamed it —
            // the same bytes the batch path writes to results.jsonl.
            println!("{}", record.json);
            if !quiet {
                eprintln!("[{}/{}] {}", record.done, record.total, record.campaign);
            }
        })
        .unwrap_or_else(|e| die(&format!("submission failed: {e}")));
    eprintln!(
        "{}: {} runs ({} executed, {} failed){}",
        outcome.campaign,
        outcome.total,
        outcome.executed,
        outcome.failed,
        if outcome.complete {
            ""
        } else {
            " [incomplete]"
        }
    );
    exit_unless(outcome.failed == 0 && outcome.complete);
}

fn shutdown(args: &Args) {
    let addr = args.value("--addr").unwrap_or(DEFAULT_ADDR);
    Client::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")))
        .shutdown()
        .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
    println!("daemon at {addr} is draining");
}

fn trace(args: &Args) {
    let path = Path::new(&args.positionals[0]);
    let summary = TraceSummary::read(path)
        .unwrap_or_else(|e| die(&format!("cannot summarize {}: {e}", path.display())));
    print!("{}", summary.render());
}
