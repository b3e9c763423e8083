//! The real stack, started the way a deployment starts it: a seeded
//! journal on the real filesystem, `Store::open`, and `Server` plus
//! `NetServer` on loopback, all with their default configs.

use good_core::instance::Instance;
use good_server::client::Client;
use good_server::net::{NetConfig, NetServer};
use good_server::{Server, ServerConfig};
use good_store::{LogRecord, Store};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Write `db` as a one-record journal: a `LogRecord::Snapshot` line,
/// the journal's documented first record. The file is synced, so no
/// dirty page of it is left to be written back during a measurement.
pub fn write_seed_journal(path: &Path, db: &Instance) -> Result<(), String> {
    let record = LogRecord::Snapshot(Box::new(db.clone()));
    let mut line = serde_json::to_string(&record).map_err(|e| e.to_string())?;
    line.push('\n');
    let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut file = std::fs::File::create(path).map_err(fail)?;
    file.write_all(line.as_bytes()).map_err(fail)?;
    file.sync_all().map_err(fail)
}

/// Open the store at `path` and time it.
pub fn timed_open(path: &Path) -> Result<(Store, f64), String> {
    let started = Instant::now();
    let store = Store::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok((store, started.elapsed().as_secs_f64()))
}

/// A running stack.
pub struct Stack {
    /// The TCP front end, which owns the server.
    pub net: NetServer,
    /// The journal the store appends to.
    pub journal: PathBuf,
}

impl Stack {
    /// Seed `dir/db.journal` with `db`, open it, and serve it on an
    /// ephemeral loopback port.
    pub fn start(dir: &Path, db: &Instance) -> Result<Stack, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let journal = dir.join("db.journal");
        write_seed_journal(&journal, db)?;
        let (store, _) = timed_open(&journal)?;
        let server = Server::start(store, ServerConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let net = NetServer::start(server, listener, NetConfig::default())
            .map_err(|e| format!("serve: {e}"))?;
        Ok(Stack { net, journal })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.net.local_addr()
    }

    /// Open one client connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// The journal's current size in bytes.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal).map_or(0, |m| m.len())
    }

    /// Drain and stop everything; returns the store the server held.
    pub fn shutdown(self) -> Result<Store, String> {
        self.net.shutdown().map_err(|e| format!("shutdown: {e}"))
    }

    /// Stop everything and delete the journal's directory.
    pub fn discard(self) -> Result<(), String> {
        let dir = self.journal.parent().map(Path::to_path_buf);
        drop(self.shutdown()?);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
