//! Fixture: allocation sites inside nested cfg(test) regions must not count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Copy a key; the one budgeted allocation site.
pub fn key_copy(key: &[u8]) -> Vec<u8> {
    key.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    mod nested {
        use super::*;

        #[test]
        fn copies() {
            assert_eq!(key_copy(&[4]), [4]);
            let x: Vec<u8> = Vec::new();
            assert!(x.is_empty());
        }
    }

    #[test]
    fn after_the_nested_module_is_still_test_code() {
        let y = vec![9u8].clone();
        assert_eq!(y, [9]);
    }
}

#[cfg(all(test, feature = "slow"))]
mod slow_tests {
    #[test]
    fn conjunctive_cfg_is_test_only() {
        assert_eq!([1u8].to_vec(), [1]);
    }
}
