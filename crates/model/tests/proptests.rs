//! Property-based tests for the workflow model.

use proptest::collection::vec;
use proptest::prelude::*;
use woha_model::config::{format_duration, parse_duration};
use woha_model::graph::Dag;
use woha_model::{
    JobId, JobSpec, SimDuration, SimTime, WorkflowBuilder, WorkflowConfig, WorkflowSpec,
};

/// A random DAG built by only adding forward edges (i < j), which is acyclic
/// by construction.
fn forward_dag(n: usize, edges: &[(usize, usize)]) -> Dag {
    let mut g = Dag::new(n);
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a < b {
            g.add_edge(a, b);
        } else if b < a {
            g.add_edge(b, a);
        }
    }
    g
}

fn arb_forward_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    vec((0..n, 0..n), 0..(n * 2))
}

proptest! {
    /// Forward-edge graphs are always acyclic, and topo order respects edges.
    #[test]
    fn topo_sort_respects_edges(edges in arb_forward_edges(12)) {
        let g = forward_dag(12, &edges);
        let order = g.topo_sort().expect("forward DAG is acyclic");
        prop_assert_eq!(order.len(), 12);
        let pos: Vec<usize> = {
            let mut pos = vec![0; 12];
            for (i, &v) in order.iter().enumerate() { pos[v] = i; }
            pos
        };
        for v in 0..12 {
            for &s in g.successors(v) {
                prop_assert!(pos[v] < pos[s], "edge {}->{} violated", v, s);
            }
        }
    }

    /// Adding a back edge along an existing path always creates a cycle.
    #[test]
    fn back_edge_creates_cycle(edges in arb_forward_edges(10)) {
        let mut g = forward_dag(10, &edges);
        // Find any existing edge and reverse it; if none, make a 2-cycle.
        let found = (0..10).find_map(|v| g.successors(v).first().map(|&s| (v, s)));
        if let Some((v, s)) = found {
            g.add_edge(s, v);
            prop_assert!(!g.is_acyclic());
        }
    }

    /// HLF levels: every node's level is exactly one more than its highest
    /// dependent, and sinks are level 0.
    #[test]
    fn levels_are_consistent(edges in arb_forward_edges(12)) {
        let g = forward_dag(12, &edges);
        let levels = g.levels_from_sinks().unwrap();
        for v in 0..12 {
            let expect = g.successors(v).iter().map(|&s| levels[s] + 1).max().unwrap_or(0);
            prop_assert_eq!(levels[v], expect);
        }
    }

    /// The critical path weight is at least the heaviest single node and at
    /// most the total weight.
    #[test]
    fn critical_path_bounds(edges in arb_forward_edges(10),
                            weights in vec(0u64..1_000, 10)) {
        let g = forward_dag(10, &edges);
        let cp = g.critical_path_weight(&weights).unwrap();
        let max_node = *weights.iter().max().unwrap();
        let total: u64 = weights.iter().sum();
        prop_assert!(cp >= max_node);
        prop_assert!(cp <= total);
    }

    /// Duration strings round-trip through format/parse.
    #[test]
    fn duration_roundtrip(ms in 0u64..10_000_000_000) {
        let d = SimDuration::from_millis(ms);
        prop_assert_eq!(parse_duration(&format_duration(d)).unwrap(), d);
    }

    /// SimTime arithmetic: (t + d) - d == t and (t + d) - t == d.
    #[test]
    fn time_arithmetic_inverts(t in 0u64..u32::MAX as u64, d in 0u64..u32::MAX as u64) {
        let t = SimTime::from_millis(t);
        let d = SimDuration::from_millis(d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }
}

fn arb_workflow() -> impl Strategy<Value = WorkflowSpec> {
    (
        2usize..12,
        proptest::collection::vec((0usize..12, 0usize..12), 0..20),
        1u64..100,
    )
        .prop_map(|(n, raw_edges, deadline_mins)| {
            let mut b = WorkflowBuilder::new("prop");
            let ids: Vec<JobId> = (0..n)
                .map(|i| {
                    b.add_job(JobSpec::new(
                        format!("j{i}"),
                        (i as u32 % 7) + 1,
                        i as u32 % 4,
                        SimDuration::from_secs(10 + i as u64),
                        SimDuration::from_secs(20 + i as u64),
                    ))
                })
                .collect();
            for (a, z) in raw_edges {
                let (a, z) = (a % n, z % n);
                if a < z {
                    b.add_dependency(ids[a], ids[z]);
                }
            }
            b.relative_deadline(SimDuration::from_mins(deadline_mins));
            b.build().expect("forward edges are acyclic")
        })
}

proptest! {
    /// Dependents and prerequisites are mutually consistent.
    #[test]
    fn dependents_invert_prerequisites(w in arb_workflow()) {
        for j in w.job_ids() {
            for &p in w.prerequisites(j) {
                prop_assert!(w.dependents(p).contains(&j));
            }
            for &d in w.dependents(j) {
                prop_assert!(w.prerequisites(d).contains(&j));
            }
        }
    }

    /// Every workflow has at least one initially-ready job, and none of them
    /// have prerequisites.
    #[test]
    fn initially_ready_nonempty(w in arb_workflow()) {
        let ready = w.initially_ready();
        prop_assert!(!ready.is_empty());
        for j in ready {
            prop_assert!(w.prerequisites(j).is_empty());
        }
    }

    /// Critical path is bounded by total work and at least the longest job.
    #[test]
    fn workflow_critical_path_bounds(w in arb_workflow()) {
        let cp = w.critical_path();
        let longest = w.jobs().iter().map(JobSpec::length).max().unwrap();
        prop_assert!(cp >= longest);
        let serial: SimDuration = w.jobs().iter().map(JobSpec::length).sum();
        prop_assert!(cp <= serial);
    }

    /// WorkflowSpec -> WorkflowConfig -> XML -> WorkflowConfig -> WorkflowSpec
    /// is the identity.
    #[test]
    fn workflow_xml_roundtrip(w in arb_workflow()) {
        let cfg = WorkflowConfig::from(&w);
        let xml = cfg.to_xml();
        let cfg2 = WorkflowConfig::parse(&xml).unwrap();
        prop_assert_eq!(&cfg, &cfg2);
        let w2 = cfg2.to_spec(w.submit_time()).unwrap();
        prop_assert_eq!(w, w2);
    }

    /// Arbitrary text survives XML attribute escaping.
    #[test]
    fn xml_escape_roundtrip(s in "[ -~]{0,60}") {
        let doc = woha_model::xml::Element::new("a").with_attr("v", s.clone());
        let parsed = woha_model::xml::parse(&doc.to_string()).unwrap();
        prop_assert_eq!(parsed.attr("v"), Some(s.as_str()));
    }

    /// Escaped text is accepted and dropped inside an element, and is no
    /// root element before one.
    #[test]
    fn xml_text_is_dropped(s in "[!-~][ -~]{0,58}[!-~]") {
        use woha_model::xml::{escape, parse};
        let text = escape(&s);
        let parsed = parse(&format!("<a>{text}<b/>{text}</a>")).unwrap();
        prop_assert_eq!(parsed, parse("<a><b/></a>").unwrap());
        prop_assert_eq!(
            parse(&format!("{text}<a/>")).unwrap_err(),
            woha_model::XmlError::NoRootElement
        );
    }

    /// The XML parser never panics on arbitrary input — it returns a
    /// document or a structured error.
    #[test]
    fn xml_parser_total_on_garbage(s in ".{0,200}") {
        let _ = woha_model::xml::parse(&s);
    }

    /// Nor does it panic on plausible-but-broken markup.
    #[test]
    fn xml_parser_total_on_markupish(s in "[<>=/a-z \"&;!-]{0,120}") {
        let _ = woha_model::xml::parse(&s);
    }

    /// WorkflowConfig::parse is equally total.
    #[test]
    fn config_parser_total(s in "[<>=/a-z0-9 \"-]{0,150}") {
        let _ = woha_model::WorkflowConfig::parse(&s);
    }
}
