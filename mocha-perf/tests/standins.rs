//! The std-only stand-ins under `stubs/` are part of what the benchmark
//! measures, so they are tested like the rest of it: the serde data model
//! and derives through the repository's own `serbin` format, the channel
//! and lock wrappers for the behaviour the Mocha runtimes rely on.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, RecvTimeoutError, TryRecvError};
use mocha_wire::serbin::{from_bytes, to_bytes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Unit;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone, Copy)]
struct Meters(pub f64);

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Pair(i32, String);

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct TableSetting {
    flatware: i32,
    plates: Vec<u16>,
    note: Option<String>,
    pub(crate) by_guest: BTreeMap<String, (u8, bool)>,
    spacing: Meters,
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Shape {
    Empty,
    Circle(Meters),
    Rect(u32, u32),
    Label { text: String, size: u8 },
}

fn round_trip<T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value).expect("serializes");
    let back: T = from_bytes(&bytes).expect("deserializes");
    assert_eq!(&back, value);
}

#[test]
fn derived_types_round_trip_through_serbin() {
    round_trip(&Unit);
    round_trip(&Meters(1.5));
    round_trip(&Pair(-7, "good choice".into()));
    round_trip(&TableSetting {
        flatware: 1,
        plates: vec![2, 3, 65535],
        note: Some("Good Choice".into()),
        by_guest: [
            ("ann".to_string(), (4, true)),
            ("bo".to_string(), (0, false)),
        ]
        .into_iter()
        .collect(),
        spacing: Meters(0.25),
    });
    for shape in [
        Shape::Empty,
        Shape::Circle(Meters(2.0)),
        Shape::Rect(3, 4),
        Shape::Label {
            text: "x".into(),
            size: 9,
        },
    ] {
        round_trip(&shape);
    }
    round_trip(&(1u8, -2i64, 'z', [1u32, 2, 3]));
    round_trip(&vec![Some(1.0f32), None]);
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let bytes = to_bytes(&Shape::Rect(3, 4)).unwrap();
    for cut in 0..bytes.len() {
        assert!(from_bytes::<Shape>(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // Variant index 9 does not exist.
    assert!(from_bytes::<Shape>(&[9, 0, 0, 0]).is_err());
    // A length prefix far beyond the input must not allocate for it.
    assert!(from_bytes::<Vec<u64>>(&[0xff, 0xff, 0xff, 0x7f]).is_err());
}

#[test]
fn channels_deliver_in_order_and_report_disconnection() {
    let (tx, rx) = unbounded::<u32>();
    assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)),
        Err(RecvTimeoutError::Timeout)
    );
    let tx2 = tx.clone();
    let sender = std::thread::spawn(move || {
        for i in 0..100 {
            tx2.send(i).unwrap();
        }
    });
    let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
    sender.join().unwrap();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    drop(tx);
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    let (tx, rx) = unbounded::<u32>();
    drop(rx);
    assert!(tx.send(1).is_err());
}

#[test]
fn locks_survive_a_panicking_holder() {
    let m = Arc::new(parking_lot::Mutex::new(1));
    let l = Arc::new(parking_lot::RwLock::new(1));
    let (m2, l2) = (m.clone(), l.clone());
    let crashed = std::thread::spawn(move || {
        let _g = m2.lock();
        let _w = l2.write();
        panic!("holder dies");
    })
    .join();
    assert!(crashed.is_err());
    *m.lock() += 1;
    *l.write() += 1;
    assert_eq!((*m.lock(), *l.read()), (2, 2));
    assert!(m.try_lock().is_some());
}

#[test]
fn seeded_generators_repeat_and_respect_ranges() {
    let mut a = StdRng::seed_from_u64(42);
    let mut b = StdRng::seed_from_u64(42);
    let mut c = StdRng::seed_from_u64(43);
    let mut differs = false;
    for _ in 0..1000 {
        let x: u64 = a.gen_range(0..=1_600_000);
        assert_eq!(x, b.gen_range(0..=1_600_000));
        assert!(x <= 1_600_000);
        differs |= x != c.gen_range(0..=1_600_000);
    }
    assert!(differs);
    assert!(!a.gen_bool(0.0) && a.gen_bool(1.0));
    let hits = (0..100_000).filter(|_| a.gen_bool(0.002)).count();
    assert!(
        (120..300).contains(&hits),
        "0.2 % loss drew {hits} of 100000"
    );
}
