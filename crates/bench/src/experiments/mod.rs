//! One module per table/figure of the paper's evaluation.

pub mod ablations;
pub mod ddio;
pub mod failover;
pub mod fig04;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod limited;
pub mod queues;
pub mod sensitivity;
pub mod table2;
pub mod table3;
pub mod table4;

/// An experiment entry point: `run(quick, jobs) -> formatted report`,
/// running its independent simulations on at most `jobs` threads.
pub type ExperimentFn = fn(bool, usize) -> String;

/// All experiments by name, in paper order.
pub fn all() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig04", fig04::run as ExperimentFn),
        ("fig09", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("table2", table2::run),
        ("table3", table3::run),
        ("table4", table4::run),
        ("limited", limited::run),
        ("queues", queues::run),
        ("ddio", ddio::run),
        ("failover", failover::run),
        ("ablations", ablations::run),
        ("sensitivity", sensitivity::run),
    ]
}
