//! Fixture simulation crate: the map aliases under a fixed hasher.

pub mod hash {
    //! `HashMap` under an unkeyed hasher: the same order in every
    //! process, but still hash order.

    use std::collections::hash_map::DefaultHasher;
    use std::hash::BuildHasherDefault;

    /// `HashMap` under the fixed hasher.
    pub type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;
}
