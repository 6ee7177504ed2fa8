//! The `hc-serve` binary: bind, print the address, serve until a client
//! POSTs `/v1/shutdown`, then drain.
//!
//! ```text
//! hc-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--rps N]
//! ```
//!
//! Flags override the `HC_SERVE_THREADS` / `HC_SERVE_QUEUE_CAP` /
//! `HC_SERVE_RPS` environment defaults.

use hc_serve::server::Options;

fn usage() -> ! {
    eprintln!("usage: hc-serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--rps N]");
    std::process::exit(2);
}

fn main() {
    let mut opts = Options::from_config(&hc_core::obs::config());
    opts.addr = "127.0.0.1:8080".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr"),
            "--workers" => match value("--workers").parse() {
                Ok(n) if n >= 1 => opts.workers = n,
                _ => usage(),
            },
            "--queue-cap" => match value("--queue-cap").parse() {
                Ok(n) if n >= 1 => opts.queue_cap = n,
                _ => usage(),
            },
            "--rps" => match value("--rps").parse() {
                Ok(n) if n >= 1 => opts.rps = Some(n),
                _ => usage(),
            },
            _ => usage(),
        }
    }

    let server = match hc_serve::start(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hc-serve: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!(
        "hc-serve listening on http://{} ({} workers, queue cap {})",
        server.addr(),
        opts.workers,
        opts.queue_cap
    );
    if let Some(rps) = opts.rps {
        println!("hc-serve: per-client rate limit {rps} rps");
    }
    if hc_core::persist::store().is_some() {
        println!("hc-serve: persistent result store enabled (HC_STORE_DIR)");
    }
    server.wait_for_shutdown_request();
    println!("hc-serve: drain requested, finishing queued jobs");
    server.shutdown();
    println!("hc-serve: drained");
}
