//! Fixture protocol crate with one panic site per lint outside tests.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// Parse a port number, panicking on every kind of bad input.
pub fn port(text: &str) -> u16 {
    let wide: u32 = text.parse().unwrap();
    let port = u16::try_from(wide).expect("port fits in 16 bits");
    if port == 0 {
        panic!("port 0 is reserved");
    }
    match port {
        0 => unreachable!(),
        p => p,
    }
}

#[cfg(test)]
mod tests {
    fn parse(text: &str) -> u16 {
        let wide: u32 = text.parse().unwrap();
        let port = u16::try_from(wide).expect("port fits in 16 bits");
        if port == 0 {
            panic!("port 0 is reserved");
        }
        match port {
            0 => unreachable!(),
            p => p,
        }
    }

    #[test]
    fn parses() {
        assert_eq!(parse("443"), super::port("443"));
    }
}

#[test]
fn test_fn_outside_a_test_module() {
    let wide: u32 = "80".parse().unwrap();
    let port = u16::try_from(wide).expect("port fits in 16 bits");
    if port == 0 {
        panic!("port 0 is reserved");
    }
    match port {
        0 => unreachable!(),
        p => assert_eq!(p, 80),
    }
}
