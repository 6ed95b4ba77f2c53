//! Ratchet fixture, protocol crate: four panic sites against a baseline
//! of two — the ratchet must fail. Never compiled.

pub fn risky(v: &[u8]) -> u8 {
    let first = v.first().unwrap();
    let second = v.get(1).expect("needs two bytes");
    let third = v[2];
    if *first == 0 {
        panic!("zero lead byte");
    }
    *second + third
}

pub fn table(t: &[u8; 256], b: u8) -> u8 {
    t[usize::from(b)] // lint: allow(indexing) a u8 is always < 256
}
