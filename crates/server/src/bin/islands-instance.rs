//! One shared-nothing instance process.
//!
//! Serves a [`PartitionEngine`](islands_core::native::PartitionEngine) over
//! the wire protocol: local submissions commit here, 2PC `Prepare`/
//! `Decision` frames drive participant-side distributed commit. Normally
//! spawned by `islands_server::deploy::Deployment` (which passes
//! `--instance-child` plus `ChildSpec::to_args` and reads the
//! `READY`/`STATS` lines off stdout), but it can be started by hand — with
//! the whole command line, since the child has no defaults of its own:
//!
//! ```sh
//! islands-instance --endpoint uds:/tmp/inst0.sock --engine locked \
//!     --lo 0 --hi 10000 --row-size 64 --lock-ms 200 --retry-limit 64 \
//!     --stats-every-ms 0
//! ```

use std::process::ExitCode;

use islands_server::deploy::{instance_child_main, INSTANCE_CHILD_FLAG};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Tolerate the flag's absence when invoked directly: the orchestrator
    // always passes it (one arg parser for self-exec and dedicated-binary
    // spawns), a human needn't bother.
    if args.first().map(String::as_str) == Some(INSTANCE_CHILD_FLAG) {
        args.remove(0);
    }
    ExitCode::from(instance_child_main(args) as u8)
}
