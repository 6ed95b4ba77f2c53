//! Failure handling (paper §4): dissemination for availability, lock
//! breaking after owner failure.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use std::time::Duration;

use mocha::config::{AvailabilityConfig, MochaConfig};
use mocha::replica::{replica_id, ReplicaSpec};
use mocha::runtime::thread::ThreadRuntime;
use mocha_wire::{LockId, ReplicaPayload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Short leases so the demo breaks locks quickly.
    let config = MochaConfig {
        default_lease: Duration::from_millis(300),
        lease_scan_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_millis(200),
        ..MochaConfig::default()
    };
    let mut rt = ThreadRuntime::builder().sites(4).config(config).build();
    let lock = LockId(1);
    let doc = replica_id("document");

    for i in 0..4 {
        rt.handle(i).register(
            lock,
            vec![ReplicaSpec::new(
                "document",
                ReplicaPayload::Utf8(String::new()),
            )],
        )?;
    }

    // --- Part 1: availability through dissemination (UR = 3). ---
    let writer = rt.handle(1);
    writer.set_availability(lock, AvailabilityConfig { ur: 3 })?;
    writer.lock(lock)?;
    writer.write(doc, ReplicaPayload::Utf8("v1: the important update".into()))?;
    writer.unlock(lock, true)?; // waits until 2 other sites hold v1
    println!("site 1 wrote v1 and disseminated it to 2 other sites (UR=3)");

    // Site 1 now dies. Its state survives elsewhere.
    rt.kill_site(1);
    println!("site 1 crashed");

    let reader = rt.handle(2);
    reader.lock(lock)?;
    let value = reader.read(doc)?;
    reader.unlock(lock, false)?;
    println!("site 2 reads after the crash: {value:?}");
    assert_eq!(
        value,
        ReplicaPayload::Utf8("v1: the important update".into()),
        "the disseminated copy survived the producer's crash"
    );

    // --- Part 2: lock breaking after owner failure. ---
    let doomed = rt.handle(3);
    doomed.lock_with_lease(lock, Duration::from_millis(300))?;
    println!("site 3 acquired the lock ... and crashes while holding it");
    rt.kill_site(3);

    // Site 2 requests the lock; the coordinator confirms the owner's death
    // with a heartbeat, breaks the lock, and grants it.
    let start = std::time::Instant::now();
    reader.lock(lock)?;
    println!(
        "site 2 obtained the broken lock after {:?} (lease + heartbeat timeout)",
        start.elapsed()
    );
    reader.unlock(lock, false)?;

    // --- Part 3: reboot and rejoin. ---
    let reborn = rt.restart_site(1);
    reborn.register(
        lock,
        vec![ReplicaSpec::new(
            "document",
            ReplicaPayload::Utf8(String::new()),
        )],
    )?;
    reborn.lock(lock)?;
    let value = reborn.read(doc)?;
    reborn.unlock(lock, false)?;
    println!("rebooted site 1 rejoined and reads: {value:?}");
    assert_eq!(
        value,
        ReplicaPayload::Utf8("v1: the important update".into())
    );

    rt.shutdown();
    println!("failure handling demonstrated.");
    Ok(())
}
