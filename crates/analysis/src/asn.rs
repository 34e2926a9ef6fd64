//! Autonomous-system attribution for prober addresses.
//!
//! Table 3 of the paper counts unique prober IPs per AS. We model each
//! AS as a set of /16 prefixes with a weight proportional to its share
//! of the 12,300 observed prober addresses. The same table drives IP
//! generation in the GFW model's prober fleet and attribution here, so
//! regenerating Table 3 exercises a real lookup, not a tautology.

use netsim::packet::Ipv4;

/// One autonomous system: number, name, /16 prefixes, and the unique-IP
/// count the paper observed (Table 3).
#[derive(Clone, Copy, Debug)]
pub struct AsEntry {
    /// AS number.
    pub asn: u32,
    /// Short name.
    pub name: &'static str,
    /// /16 prefixes (first two octets) belonging to this AS in our
    /// address plan.
    pub prefixes: &'static [[u8; 2]],
    /// Unique prober IPs the paper attributed to this AS.
    pub paper_count: u32,
}

/// The AS inventory of Table 3. Prefixes are chosen from each AS's real
/// allocations where well-known (e.g. 175.42/16 for CHINA169; the
/// paper's Table 2 lists prober 175.42.1.21), otherwise representative.
pub const AS_TABLE: &[AsEntry] = &[
    AsEntry {
        asn: 4837,
        name: "CHINA169-BACKBONE CNCGROUP",
        prefixes: &[[175, 42], [218, 104], [125, 32], [60, 24], [113, 128]],
        paper_count: 6262,
    },
    AsEntry {
        asn: 4134,
        name: "CHINANET-BACKBONE No.31,Jin-rong Street",
        prefixes: &[[223, 166], [116, 252], [112, 80], [124, 235], [221, 213]],
        paper_count: 5188,
    },
    AsEntry {
        asn: 17622,
        name: "CNCGROUP-GZ China Unicom Guangzhou",
        prefixes: &[[58, 248], [119, 131]],
        paper_count: 315,
    },
    AsEntry {
        asn: 17621,
        name: "CNCGROUP-SH China Unicom Shanghai",
        prefixes: &[[112, 64], [140, 206]],
        paper_count: 263,
    },
    AsEntry {
        asn: 17816,
        name: "CHINA169-GZ China Unicom IP network",
        prefixes: &[[113, 64], [119, 121]],
        paper_count: 104,
    },
    AsEntry {
        asn: 4847,
        name: "CNIX-AP China Networks Inter-Exchange",
        prefixes: &[[218, 245]],
        paper_count: 101,
    },
    AsEntry {
        asn: 58563,
        name: "CHINANET-HUBEI-IDC",
        prefixes: &[[27, 17]],
        paper_count: 44,
    },
    AsEntry {
        asn: 17638,
        name: "CHINATELECOM-TJ Tianjin",
        prefixes: &[[117, 8]],
        paper_count: 17,
    },
    AsEntry {
        asn: 9808,
        name: "CMNET-GD Guangdong Mobile",
        prefixes: &[[120, 196]],
        paper_count: 2,
    },
    AsEntry {
        asn: 4812,
        name: "CHINANET-SH-AP China Telecom Shanghai",
        prefixes: &[[116, 224]],
        paper_count: 1,
    },
    AsEntry {
        asn: 24400,
        name: "CMNET-SH Shanghai Mobile",
        prefixes: &[[117, 184]],
        paper_count: 1,
    },
    AsEntry {
        asn: 56046,
        name: "CMNET-JIANGSU Jiangsu Mobile",
        prefixes: &[[120, 195]],
        paper_count: 1,
    },
    AsEntry {
        asn: 56047,
        name: "CMNET-HUNAN Hunan Mobile",
        prefixes: &[[120, 227]],
        paper_count: 1,
    },
];

/// Attribute an address to an AS by /16 prefix.
pub fn lookup(addr: Ipv4) -> Option<&'static AsEntry> {
    let p = addr.prefix16();
    AS_TABLE.iter().find(|e| e.prefixes.contains(&p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_total_is_12300() {
        // 6262+5188+315+263+104+101+44+17+2+1+1+1+1 = 12300 unique IPs
        // (§3.3: "12,300 unique source IP addresses").
        let total: u32 = AS_TABLE.iter().map(|e| e.paper_count).sum();
        assert_eq!(total, 12_300);
    }

    #[test]
    fn lookup_finds_known_prefix() {
        // Table 2's most common prober, 175.42.1.21, is CHINA169.
        let e = lookup(Ipv4::new(175, 42, 1, 21)).unwrap();
        assert_eq!(e.asn, 4837);
        let e = lookup(Ipv4::new(223, 166, 74, 207)).unwrap();
        assert_eq!(e.asn, 4134);
    }

    #[test]
    fn lookup_misses_foreign_address() {
        assert!(lookup(Ipv4::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn prefixes_are_unique_across_ases() {
        let mut all: Vec<[u8; 2]> = AS_TABLE
            .iter()
            .flat_map(|e| e.prefixes.iter().copied())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "a prefix is claimed by two ASes");
    }

    #[test]
    fn dominant_ases_match_paper_ordering() {
        // AS4837 and AS4134 dominate, in that order (§3.3).
        assert!(AS_TABLE[0].paper_count > AS_TABLE[1].paper_count);
        assert_eq!(AS_TABLE[0].asn, 4837);
        assert_eq!(AS_TABLE[1].asn, 4134);
    }
}
