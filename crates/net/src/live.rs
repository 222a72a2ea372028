//! Live IPC ping-pong measurement on the host.
//!
//! Replicates the paper's Figure 6 microbenchmark for the mechanisms the
//! Rust standard library exposes portably (Unix domain sockets and TCP
//! loopback): two threads exchange fixed-size messages for a bounded number
//! of round trips and we report messages/second. On a single-socket host
//! there is no "different socket" variant — the calibrated model in
//! [`crate::ipc_model`] covers that axis.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Instant;

const MSG_SIZE: usize = 64;

/// Result of one live measurement.
#[derive(Debug, Clone, Copy)]
pub struct LiveResult {
    pub mechanism: &'static str,
    pub msgs_per_sec: f64,
    pub round_trips: u32,
}

fn pingpong<S: Read + Write + Send + 'static>(
    mechanism: &'static str,
    mut a: S,
    mut b: S,
    round_trips: u32,
) -> std::io::Result<LiveResult> {
    let peer = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = [0u8; MSG_SIZE];
        for _ in 0..round_trips {
            b.read_exact(&mut buf)?;
            b.write_all(&buf)?;
        }
        Ok(())
    });
    let msg = [7u8; MSG_SIZE];
    let mut buf = [0u8; MSG_SIZE];
    // The whole exchange is wire traffic: attribute it to the
    // communication slice of the Fig. 11 breakdown.
    let _span = islands_obs::enter(islands_obs::BreakdownCategory::Communication);
    let start = Instant::now();
    let mut local: std::io::Result<()> = Ok(());
    for _ in 0..round_trips {
        local = a.write_all(&msg).and_then(|()| a.read_exact(&mut buf));
        if local.is_err() {
            // Drop our end so the peer unblocks with an error of its own,
            // then report ours (it names the first failure).
            break;
        }
    }
    let elapsed = start.elapsed();
    drop(a);
    let peer_result = peer
        .join()
        .map_err(|_| std::io::Error::other("ping-pong peer thread panicked"))?;
    local?;
    peer_result?;
    // Two messages per round trip.
    let msgs = 2.0 * round_trips as f64;
    Ok(LiveResult {
        mechanism,
        msgs_per_sec: msgs / elapsed.as_secs_f64(),
        round_trips,
    })
}

/// Measure Unix-domain-socket ping-pong throughput.
pub fn measure_unix_sockets(round_trips: u32) -> std::io::Result<LiveResult> {
    let (a, b) = UnixStream::pair()?;
    pingpong("UNIX sockets (live)", a, b, round_trips)
}

/// Measure TCP-loopback ping-pong throughput.
pub fn measure_tcp(round_trips: u32) -> std::io::Result<LiveResult> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let a = TcpStream::connect(addr)?;
    let (b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    pingpong("TCP sockets (live)", a, b, round_trips)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_socket_pingpong_runs() {
        let r = measure_unix_sockets(200).unwrap();
        assert!(r.msgs_per_sec > 1_000.0, "{:?}", r);
        assert_eq!(r.round_trips, 200);
    }

    #[test]
    fn tcp_pingpong_runs() {
        let r = measure_tcp(200).unwrap();
        assert!(r.msgs_per_sec > 500.0, "{:?}", r);
    }

    #[test]
    fn broken_connection_is_an_error_not_a_panic() {
        let (a, b) = UnixStream::pair().unwrap();
        // Kill the peer end before the exchange: every round trip must fail
        // with an I/O error that propagates out of the measurement.
        b.shutdown(std::net::Shutdown::Both).unwrap();
        let err = pingpong("broken pair", a, b, 10);
        assert!(err.is_err(), "dead peer must surface as Err: {err:?}");
    }

    #[test]
    fn unix_sockets_beat_tcp_locally() {
        // The paper's observation. Interference on a shared box only ever
        // slows a round down, so each transport is judged by the best of
        // three interleaved rounds, not by one race.
        let (mut u, mut t) = (0f64, 0f64);
        for _ in 0..3 {
            u = u.max(measure_unix_sockets(500).unwrap().msgs_per_sec);
            t = t.max(measure_tcp(500).unwrap().msgs_per_sec);
        }
        assert!(u > t * 0.8, "unix {u:.0} vs tcp {t:.0} msgs/s (best of 3)");
    }
}
