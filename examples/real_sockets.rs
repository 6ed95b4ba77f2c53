//! Mocha over real sockets: the paper's protocol on actual UDP/TCP.
//!
//! ```text
//! cargo run --example real_sockets
//! ```
//!
//! Boots a three-site cluster where every site owns a real UDP socket on
//! an ephemeral loopback port — the same `SocketRuntime` that `mochad`
//! uses to run one site per OS process from a hostfile. The demo walks
//! the full wide-area story over the wire:
//!
//! 1. lock acquisition through the home site's synchronization thread,
//! 2. a direct daemon→daemon replica transfer to the next lock holder,
//! 3. UR>1 dissemination pushing a release's update to extra replicas,
//!
//! and prints the runtime's transport metrics at exit.

use mocha::config::AvailabilityConfig;
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::socket::SocketRuntime;
use mocha_wire::{LockId, ReplicaPayload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rt = SocketRuntime::builder().sites(3).build()?;
    let lock = LockId(1);
    let doc = replica_id("doc");

    for i in 0..3 {
        rt.handle(i).register(
            lock,
            vec![ReplicaSpec::new("doc", ReplicaPayload::Utf8(String::new()))],
        )?;
    }

    // 1. Site 1 acquires through the coordinator at site 0 — an
    //    AcquireLock/Grant round trip over real UDP datagrams.
    let h1 = rt.handle(1);
    h1.lock(lock)?;
    h1.write(doc, ReplicaPayload::Utf8("written at site 1".into()))?;
    h1.unlock(lock, true)?;
    println!("site 1 wrote under the lock");

    // 2. Site 2 acquires next: the coordinator directs site 1's daemon to
    //    transfer the current replica directly to site 2's daemon.
    let h2 = rt.handle(2);
    h2.lock(lock)?;
    let v = h2.read(doc)?;
    println!("site 2 read after daemon->daemon transfer: {v:?}");
    assert_eq!(v, ReplicaPayload::Utf8("written at site 1".into()));

    // 3. Raise update replication to 3: site 2's dirty release now pushes
    //    the new version to every replica before the release completes.
    h2.set_availability(lock, AvailabilityConfig { ur: 3 })?;
    h2.write(doc, ReplicaPayload::Utf8("disseminated from site 2".into()))?;
    h2.unlock(lock, true)?;
    println!("site 2 released with UR=3 dissemination");

    // Site 0's daemon already holds the pushed version, so this lock needs
    // no transfer at all.
    let h0 = rt.handle(0);
    h0.lock(lock)?;
    assert_eq!(
        h0.read(doc)?,
        ReplicaPayload::Utf8("disseminated from site 2".into())
    );
    h0.unlock(lock, false)?;
    println!("site 0 observed the disseminated version locally");

    let metrics = rt.metrics();
    rt.shutdown();
    println!("metrics: {metrics}");
    Ok(())
}
