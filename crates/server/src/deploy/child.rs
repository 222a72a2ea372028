//! The instance child: what one spawned instance process is told
//! (`ChildSpec`), the one codec that carries it across `exec`
//! (`ChildSpec::to_args` in the parent, `ChildSpec::from_args` in the
//! child — one flag table, so neither side has a default the other does not
//! know), and the child's `main`.

use std::io::{self, Write as _};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use islands_core::native::{DecideOutcome, Engine, EngineMode, PartitionConfig, TpccPartition};

use super::DeployConfig;
use crate::client::Client;
use crate::server::{Backend, Endpoint, Server, ServerConfig};
use crate::wire::{Reply, Request};

/// First argument that turns a host binary into an instance child (see
/// [`run_instance_child_if_requested`]).
pub const INSTANCE_CHILD_FLAG: &str = "--instance-child";

/// Everything one instance process is told on its command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct ChildSpec {
    /// Where to listen (`tcp:…:0` binds an ephemeral port; `READY` reports
    /// the resolved one).
    pub(super) endpoint: Endpoint,
    pub(super) engine: EngineMode,
    /// What to load and serve: [`DeployConfig::partition`]'s answer.
    pub(super) partition: PartitionConfig,
    pub(super) retry_limit: u32,
    pub(super) stats_every_ms: u64,
    pub(super) obs: bool,
    /// The coordinator's resolver, asked about in-doubt branches after a
    /// WAL replay.
    pub(super) coord: Option<Endpoint>,
}

/// Why a child command line was refused.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum ArgError {
    /// A flag the table does not have.
    Unknown(String),
    /// A value flag at the end of the line.
    NoValue(&'static str),
    /// A value that does not parse, and why.
    Bad(&'static str, String),
    /// A flag the rest of the line needs and does not have.
    Missing(&'static str),
}

/// Every flag of the child's command line, and whether a value follows it
/// (a switch is passed bare). [`ChildSpec::to_args`] writes nothing that is
/// not listed here and [`ChildSpec::from_args`] reads nothing else.
/// `--warehouses` (with `--w-lo`/`--w-hi`) is what makes the instance a
/// TPC-C one; `--lo`/`--hi`/`--row-size` are what the micro table loads by
/// and are ignored then. A lock timeout travels in whole milliseconds.
const FLAGS: [(&str, bool); 15] = [
    ("--endpoint", true),
    ("--engine", true),
    ("--lo", true),
    ("--hi", true),
    ("--row-size", true),
    ("--lock-ms", true),
    ("--retry-limit", true),
    ("--stats-every-ms", true),
    ("--warehouses", true),
    ("--w-lo", true),
    ("--w-hi", true),
    ("--wal", true),
    ("--coord", true),
    ("--single-threaded", false),
    ("--no-obs", false),
];

fn show(v: impl ToString) -> Option<String> {
    Some(v.to_string())
}

fn num<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: ToString,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

type Parse<T> = fn(&str) -> Result<T, String>;

/// A command line split into `(flag, value)` by [`FLAGS`].
struct Line<'a>(Vec<(&'static str, &'a str)>);

impl<'a> Line<'a> {
    fn split(args: &'a [String]) -> Result<Line<'a>, ArgError> {
        let mut said = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let known = FLAGS.iter().find(|f| f.0 == arg);
            let &(flag, takes_value) = known.ok_or_else(|| ArgError::Unknown(arg.clone()))?;
            let v = match takes_value {
                true => it.next().ok_or(ArgError::NoValue(flag))?,
                false => "",
            };
            said.push((flag, v));
        }
        Ok(Line(said))
    }

    /// The value the line gives `flag`, parsed, if it gives one.
    fn opt<T>(&self, flag: &'static str, parse: Parse<T>) -> Result<Option<T>, ArgError> {
        match self.0.iter().rev().find(|said| said.0 == flag) {
            Some(&(_, v)) => parse(v).map(Some).map_err(|why| ArgError::Bad(flag, why)),
            None => Ok(None),
        }
    }

    /// The value of a flag every line carries.
    fn get<T>(&self, flag: &'static str, parse: Parse<T>) -> Result<T, ArgError> {
        self.opt(flag, parse)?.ok_or(ArgError::Missing(flag))
    }

    fn has(&self, switch: &str) -> bool {
        self.0.iter().any(|said| said.0 == switch)
    }
}

impl ChildSpec {
    /// Instance `i` of `cfg`, told where to listen and whom to ask about
    /// in-doubt branches.
    pub(super) fn of(
        cfg: &DeployConfig,
        i: usize,
        endpoint: Endpoint,
        coord: Option<Endpoint>,
    ) -> ChildSpec {
        ChildSpec {
            endpoint,
            engine: cfg.engine,
            partition: cfg.partition(i),
            retry_limit: cfg.retry_limit,
            stats_every_ms: cfg.stats_every_ms,
            obs: cfg.obs,
            coord,
        }
    }

    /// The command line (after [`INSTANCE_CHILD_FLAG`]) that
    /// [`from_args`](Self::from_args) reads back as `self`.
    pub(super) fn to_args(&self) -> Vec<String> {
        let p = &self.partition;
        let tpcc = p.tpcc.as_ref();
        // `None`: nothing to say — an unset option, a switch that is off.
        let said = [
            ("--endpoint", show(&self.endpoint)),
            ("--engine", show(self.engine)),
            ("--lo", show(p.lo)),
            ("--hi", show(p.hi)),
            ("--row-size", show(p.row_size)),
            ("--lock-ms", show(p.lock_timeout.as_millis())),
            ("--retry-limit", show(self.retry_limit)),
            ("--stats-every-ms", show(self.stats_every_ms)),
            ("--warehouses", tpcc.and_then(|t| show(t.warehouses))),
            ("--w-lo", tpcc.and_then(|t| show(t.w_lo))),
            ("--w-hi", tpcc.and_then(|t| show(t.w_hi))),
            ("--wal", p.wal.as_ref().and_then(|w| show(w.display()))),
            ("--coord", self.coord.as_ref().and_then(show)),
            ("--single-threaded", p.single_threaded.then(String::new)),
            ("--no-obs", (!self.obs).then(String::new)),
        ];
        let mut args = Vec::new();
        for (flag, v) in said {
            if let Some(v) = v {
                args.push(flag.to_string());
                args.extend(FLAGS.contains(&(flag, true)).then_some(v));
            }
        }
        args
    }

    /// Read a command line [`to_args`](Self::to_args) wrote. Nothing is
    /// defaulted: every flag but the options (`--wal`, `--coord`, the
    /// TPC-C three) and the switches has to be there.
    pub(super) fn from_args(args: &[String]) -> Result<ChildSpec, ArgError> {
        let line = Line::split(args)?;
        let tpcc = match (
            line.opt("--warehouses", num)?,
            line.opt("--w-lo", num)?,
            line.opt("--w-hi", num)?,
        ) {
            (None, None, None) => None,
            (warehouses, w_lo, w_hi) => Some(TpccPartition {
                warehouses: warehouses.ok_or(ArgError::Missing("--warehouses"))?,
                w_lo: w_lo.ok_or(ArgError::Missing("--w-lo"))?,
                w_hi: w_hi.ok_or(ArgError::Missing("--w-hi"))?,
            }),
        };
        Ok(ChildSpec {
            endpoint: line.get("--endpoint", Endpoint::parse)?,
            engine: line.get("--engine", EngineMode::parse)?,
            partition: PartitionConfig {
                lo: line.get("--lo", num)?,
                hi: line.get("--hi", num)?,
                row_size: line.get("--row-size", num)?,
                lock_timeout: Duration::from_millis(line.get("--lock-ms", num)?),
                single_threaded: line.has("--single-threaded"),
                tpcc,
                wal: line.opt("--wal", |v| Ok(PathBuf::from(v)))?,
                ..Default::default()
            },
            retry_limit: line.get("--retry-limit", num)?,
            stats_every_ms: line.get("--stats-every-ms", num)?,
            obs: !line.has("--no-obs"),
            coord: line.opt("--coord", Endpoint::parse)?,
        })
    }
}

/// Instance-child entry point: call this first thing in any binary that may
/// serve as a [`SpawnMode::SelfExec`](super::SpawnMode::SelfExec) host. When
/// the process was started with [`INSTANCE_CHILD_FLAG`], it runs the
/// instance server to completion and exits; otherwise it returns
/// immediately.
pub fn run_instance_child_if_requested() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some(INSTANCE_CHILD_FLAG) {
        std::process::exit(instance_child_main(args.collect()));
    }
}

/// Run one instance process from its child arguments; returns the process
/// exit code (0 clean, 2 = in-doubt leak, 1 = setup failure).
pub fn instance_child_main(args: Vec<String>) -> i32 {
    let run = ChildSpec::from_args(&args)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad arguments: {e:?}")))
        .and_then(run_instance);
    match run {
        Ok(false) => 0,
        Ok(true) => {
            eprintln!("islands-instance: drained with in-doubt transactions leaked");
            2
        }
        Err(e) => {
            eprintln!("islands-instance: {e}");
            1
        }
    }
}

/// Serve `spec` until drained; `Ok(true)` when in-doubt branches were left.
fn run_instance(spec: ChildSpec) -> io::Result<bool> {
    // The registry is process-global and this process *is* one instance, so
    // the gate is per-instance by construction.
    islands_obs::set_enabled(spec.obs);

    let backend = Backend::build(spec.engine, spec.partition)
        .map_err(|e| io::Error::other(format!("{} partition build failed: {e}", spec.engine)))?;
    let engine = backend.engine();
    let parked = || engine.recovered_gtids().map_err(io::Error::other);

    // Crash recovery rejoin, before READY: WAL replay parked any branch
    // that was prepared-but-undecided when the previous incarnation died.
    // Ask the coordinator's resolver for each verdict (presumed abort: an
    // unknown gtid answers abort). Without a reachable coordinator the
    // branches stay parked — never presume abort unilaterally; the leak is
    // then visible in the drain accounting below.
    let recovered = parked()?;
    if !recovered.is_empty() {
        match &spec.coord {
            Some(coord) => {
                if let Err(e) = resolve_with_coordinator(coord, &recovered, engine) {
                    eprintln!(
                        "islands-instance: in-doubt resolution failed \
                         ({} branch(es) stay parked): {e}",
                        parked()?.len()
                    );
                }
            }
            None => eprintln!(
                "islands-instance: {} recovered in-doubt branch(es) but no \
                 --coord to resolve against; leaving them parked",
                recovered.len()
            ),
        }
    }

    let handle = Server::spawn_backend(
        backend,
        spec.endpoint,
        ServerConfig {
            retry_limit: spec.retry_limit,
        },
    )?;

    // Readiness handshake: the parent parses this for the resolved endpoint
    // (TCP port 0 becomes a real port here).
    {
        let mut out = io::stdout().lock();
        writeln!(out, "READY {}", handle.endpoint())?;
        out.flush()?;
    }
    // Heartbeat printer: a mid-run observer (tail, a scraper that lost its
    // socket, the parent after a SIGKILL) gets counters without asking the
    // server anything. The probe is minted before `join` consumes the
    // handle; the channel doubles as the stop signal (dropping the sender
    // ends the recv_timeout loop).
    let heartbeat = (spec.stats_every_ms > 0).then(|| {
        let probe = handle.probe();
        let period = Duration::from_millis(spec.stats_every_ms);
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let printer = std::thread::spawn(move || {
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period)
            {
                let mut out = io::stdout().lock();
                let _ = writeln!(out, "{}", probe.stats().to_line());
                let _ = out.flush();
            }
        });
        (stop_tx, printer)
    });
    // The gauge reads the engine's in-doubt table, so recovered branches
    // the resolver never settled count as leaks like session-parked ones.
    let stats = handle.join()?;
    if let Some((stop_tx, printer)) = heartbeat {
        drop(stop_tx);
        let _ = printer.join();
    }
    let mut out = io::stdout().lock();
    writeln!(out, "{}", stats.to_line())?;
    out.flush()?;
    Ok(stats.in_doubt != 0)
}

/// Ask the coordinator's resolver for each parked gtid's verdict and apply
/// it through a session of the engine's own — it prepared nothing, so
/// closing it rolls back nothing. Stops at the first failure, leaving the
/// remaining branches parked for a later attempt (or the drain leak check).
fn resolve_with_coordinator(
    coord: &Endpoint,
    gtids: &[u64],
    engine: &dyn Engine,
) -> io::Result<()> {
    let mut conn = Client::connect_with_retry(coord, Duration::from_secs(5))?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut session = engine.session(0);
    for &gtid in gtids {
        conn.send_request(&Request::ResolveGtid { gtid })?;
        let commit = match conn.recv_reply()? {
            Reply::Resolved { gtid: g, commit } if g == gtid => commit,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("resolver answered {other:?} for gtid {gtid}"),
                ))
            }
        };
        match session.decide(gtid, commit) {
            Ok(DecideOutcome::Applied | DecideOutcome::AbortNoop) => {}
            Ok(DecideOutcome::UnknownCommit) => {
                return Err(io::Error::other(format!(
                    "commit verdict for gtid {gtid} found no parked branch"
                )))
            }
            Ok(DecideOutcome::Failed(m)) => {
                return Err(io::Error::other(format!("resolving gtid {gtid}: {m}")))
            }
            Err(e) => return Err(io::Error::other(format!("resolving gtid {gtid}: {e}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{DeployWorkload, Transport};
    use super::*;
    use proptest::prelude::*;

    /// A spec as [`Deployment::spawn`](super::super::Deployment::spawn)
    /// makes one.
    fn spec_of(cfg: &DeployConfig, i: usize) -> ChildSpec {
        let endpoint = match cfg.transport {
            Transport::Uds => Endpoint::Uds(format!("/tmp/islands-inst-7-0-{i}.sock").into()),
            Transport::Tcp => Endpoint::Tcp(([127, 0, 0, 1], 0).into()),
        };
        let coord = cfg
            .wal_dir
            .as_ref()
            .map(|_| Endpoint::Uds("/tmp/islands-coord-7-0.sock".into()));
        ChildSpec::of(cfg, i, endpoint, coord)
    }

    proptest! {
        /// Whatever shape the sweep, the drill or `benchmark/` can ask for,
        /// every instance of it reads back exactly what the parent wrote.
        #[test]
        fn every_instance_of_every_shape_round_trips(
            instances in 1usize..9,
            pick in any::<usize>(),
            extra_rows in 0u64..100_000,
            row_size in 1usize..512,
            retry_limit in any::<u32>(),
            lock_ms in 0u64..10_000,
            stats_every_ms in 0u64..2_000,
            tpcc in any::<bool>(),
            serial in any::<bool>(),
            wal in any::<bool>(),
            obs in any::<bool>(),
            single_threaded in any::<bool>(),
            tcp in any::<bool>(),
        ) {
            let cfg = DeployConfig {
                instances,
                transport: if tcp { Transport::Tcp } else { Transport::Uds },
                total_rows: instances as u64 + extra_rows,
                row_size,
                retry_limit,
                lock_timeout: Duration::from_millis(lock_ms),
                single_threaded,
                engine: if serial { EngineMode::Serial } else { EngineMode::Locked },
                stats_every_ms,
                obs,
                workload: if tpcc {
                    DeployWorkload::Tpcc { warehouses: instances as u64 + extra_rows % 7 }
                } else {
                    DeployWorkload::Micro
                },
                wal_dir: wal.then(|| "/var/tmp/islands wal".into()),
                ..Default::default()
            };
            let spec = spec_of(&cfg, pick % instances);
            prop_assert_eq!(spec.partition.tpcc.is_some(), tpcc);
            prop_assert_eq!(ChildSpec::from_args(&spec.to_args()), Ok(spec));
        }
    }

    /// `--lo 5 --hi 5` and `--w-lo 3 --w-hi 2` describe no partition: the
    /// child says why and exits 1, in either engine, instead of panicking.
    #[test]
    fn a_partition_nothing_can_be_built_from_exits_one_with_the_reason() {
        let micro = DeployConfig::default();
        let mut empty = spec_of(&micro, 0);
        (empty.partition.lo, empty.partition.hi) = (5, 5);
        let tpcc = DeployConfig {
            workload: DeployWorkload::Tpcc { warehouses: 4 },
            ..Default::default()
        };
        let mut backwards = spec_of(&tpcc, 0);
        let range = backwards.partition.tpcc.as_mut().unwrap();
        (range.w_lo, range.w_hi) = (3, 2);
        for (mut spec, why) in [
            (empty, "empty partition 5..5"),
            (backwards, "range 3..2 of 4"),
        ] {
            for engine in [EngineMode::Locked, EngineMode::Serial] {
                spec.engine = engine;
                let Err(e) = Backend::build(engine, spec.partition.clone()) else {
                    panic!("{engine}: built a partition from {why}");
                };
                assert!(
                    matches!(&e, islands_storage::StorageError::BadConfig(m) if m.contains(why)),
                    "{engine}: {e}"
                );
                assert_eq!(instance_child_main(spec.to_args()), 1, "{engine}: {why}");
            }
        }
    }

    #[test]
    fn unknown_valueless_unparsable_and_missing_flags_are_typed_errors() {
        let tpcc = DeployConfig {
            workload: DeployWorkload::Tpcc { warehouses: 8 },
            wal_dir: Some("/w".into()),
            ..Default::default()
        };
        let args = spec_of(&tpcc, 1).to_args();
        assert!(ChildSpec::from_args(&args).is_ok());

        let mut extra = args.clone();
        extra.push("--buffer-frames".into());
        assert_eq!(
            ChildSpec::from_args(&extra),
            Err(ArgError::Unknown("--buffer-frames".into()))
        );

        for (at, flag) in args.iter().enumerate() {
            let Some(&(name, _)) = FLAGS.iter().find(|f| f.0 == flag && f.1) else {
                continue;
            };
            // Cut off behind the flag: no value.
            assert_eq!(
                ChildSpec::from_args(&args[..=at]),
                Err(ArgError::NoValue(name))
            );
            // Cut out with its value: the line no longer describes a spec,
            // unless the flag was an option on its own.
            let mut without = args.clone();
            without.drain(at..at + 2);
            let cut = ChildSpec::from_args(&without);
            match name {
                "--wal" => assert_eq!(cut.map(|s| s.partition.wal), Ok(None)),
                "--coord" => assert_eq!(cut.map(|s| s.coord), Ok(None)),
                name => assert_eq!(cut, Err(ArgError::Missing(name))),
            }
            // Everything but `--wal` has a shape to violate.
            if name != "--wal" {
                let mut bad = args.clone();
                bad[at + 1] = "seven".into();
                assert!(
                    matches!(ChildSpec::from_args(&bad), Err(ArgError::Bad(f, _)) if f == name),
                    "{name}"
                );
            }
        }
        assert_eq!(
            ChildSpec::from_args(&[]),
            Err(ArgError::Missing("--endpoint"))
        );
    }
}
