//! The serving daemon (and demo-checkpoint trainer).
//!
//! ```text
//! # Train a small model and export it as a serving checkpoint:
//! autoac_serve --train-out ckpt.bin [--preset imdb] [--scale tiny]
//!              [--backbone gcn] [--data-seed 1] [--seed 7] [--epochs 20]
//!
//! # Serve a checkpoint:
//! autoac_serve --checkpoint ckpt.bin [--addr 127.0.0.1:0] [--workers 4]
//!              [--batch-max 64] [--flush-us 200] [--no-batching]
//!              [--port-file PATH] [--flight-dir DIR] [--run NAME]
//!              [--trace-seed N]
//! ```
//!
//! `--help` prints the usage on stdout and exits 0. An unknown flag or a
//! bad value exits 2 with a message on stderr.
//!
//! `--port-file` writes the actual bound `host:port` (useful with port 0)
//! so shell scripts can wait for readiness and find the server. Shutdown:
//! SIGINT/SIGTERM or `POST /admin/shutdown`, both graceful — and both
//! leave a flight-recorder dump (`FLIGHT_<run>.jsonl` under
//! `--flight-dir`, default `results/`) behind, as does a panic.

use std::path::PathBuf;
use std::process::exit;

use autoac_core::{train_serve_state, Backbone, ServeTrainSpec, TrainConfig};
use autoac_serve::{signals, ServeConfig, Server};

const USAGE: &str = "\
usage: autoac_serve --train-out PATH [--preset P --scale S --backbone B --data-seed N
                    --seed N --epochs N]
       autoac_serve --checkpoint PATH [--addr A --workers N --batch-max N --flush-us N
                    --no-batching --port-file PATH --flight-dir DIR --run NAME
                    --trace-seed N]
       autoac_serve --help";

/// An unknown or incomplete flag: the usage on stderr, exit 2.
fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2);
}

fn main() {
    let mut train_out: Option<PathBuf> = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut spec = ServeTrainSpec::default();
    let mut cfg = ServeConfig::default();

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--train-out" => train_out = Some(PathBuf::from(value())),
            "--checkpoint" => checkpoint = Some(PathBuf::from(value())),
            "--port-file" => port_file = Some(PathBuf::from(value())),
            "--preset" => spec.preset = value(),
            "--scale" => spec.scale = value(),
            "--backbone" => {
                let tag = value();
                spec.backbone = Backbone::parse(&tag).unwrap_or_else(|| {
                    eprintln!("unknown backbone tag {tag:?}");
                    exit(2);
                });
            }
            "--data-seed" => spec.data_seed = parse_num(&value(), "--data-seed"),
            "--seed" => spec.seed = parse_num(&value(), "--seed"),
            "--epochs" => {
                let n = parse_num(&value(), "--epochs") as usize;
                spec.train = TrainConfig { epochs: n, patience: n, ..spec.train };
            }
            "--addr" => cfg.addr = value(),
            "--workers" => cfg.workers = parse_num(&value(), "--workers") as usize,
            "--batch-max" => cfg.batch.batch_max = parse_num(&value(), "--batch-max") as usize,
            "--flush-us" => cfg.batch.flush_us = parse_num(&value(), "--flush-us"),
            "--no-batching" => cfg.batch.batching = false,
            "--flight-dir" => cfg.flight_dir = PathBuf::from(value()),
            "--run" => cfg.run = value(),
            "--trace-seed" => cfg.trace_seed = parse_num(&value(), "--trace-seed"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => usage(),
        }
    }

    match (train_out, checkpoint) {
        (Some(out), None) => train(&spec, &out),
        (None, Some(ckpt)) => serve(&ckpt, &cfg, port_file.as_deref()),
        _ => usage(),
    }
}

fn parse_num(s: &str, flag: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a non-negative integer, got {s:?}");
        exit(2);
    })
}

fn train(spec: &ServeTrainSpec, out: &std::path::Path) {
    let (state, outcome) = train_serve_state(spec).unwrap_or_else(|e| {
        eprintln!("training failed: {e}");
        exit(1);
    });
    state.write_atomic(out).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    });
    println!(
        "exported {} ckpt={:016x} macro_f1={:.4} micro_f1={:.4} epochs={}",
        out.display(),
        state.meta.config_fp,
        outcome.macro_f1,
        outcome.micro_f1,
        outcome.epochs_run,
    );
}

fn serve(ckpt: &std::path::Path, cfg: &ServeConfig, port_file: Option<&std::path::Path>) {
    let state = autoac_ckpt::ServeState::read(ckpt).unwrap_or_else(|e| {
        eprintln!("cannot load {}: {e}", ckpt.display());
        exit(1);
    });
    signals::install();
    // A crash must leave the flight ring on disk for the post-mortem.
    autoac_obs::install_panic_dump(&cfg.flight_dir, &cfg.run);
    let server = Server::start(state, cfg).unwrap_or_else(|e| {
        eprintln!("cannot start server: {e}");
        exit(1);
    });
    let addr = server.addr();
    if let Some(path) = port_file {
        // Written only once the server is ready, so scripts can poll for
        // this file instead of sleeping.
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("cannot write port file {}: {e}", path.display());
            exit(1);
        }
    }
    println!(
        "serving {} on http://{addr} (workers={}, batching={}, batch_max={}, flush_us={})",
        ckpt.display(),
        cfg.workers,
        cfg.batch.batching,
        cfg.batch.batch_max,
        cfg.batch.flush_us,
    );
    server.join();
    // The SIGTERM/SIGINT path ends here too (signals::install routes the
    // signal into the graceful-shutdown flag), so every clean exit leaves
    // the same post-mortem artifact a panic would.
    match autoac_obs::flight_dump_to(&cfg.flight_dir, &cfg.run) {
        Ok((path, records)) => println!("flight dump: {} ({records} records)", path.display()),
        Err(e) => eprintln!("flight dump failed: {e}"),
    }
    println!("shut down cleanly");
}
