//! DNN/LLM inference comparison: OPT4E versus an equal-area parallel-MAC
//! systolic TPE on GPT-2 decode and MobileNetV3 (the Figure 11–13 story).
//!
//! ```text
//! cargo run --release --example dnn_inference
//! ```

use tpe::core::arch::workload::dense_layer;
use tpe::engine::compare::{equal_area_scale, evaluate_network, serial_layer};
use tpe::engine::{roster, EngineCache, Evaluator};
use tpe::workloads::models;

fn main() {
    let eval = Evaluator::new(EngineCache::global());
    let opt4e = roster::find("OPT4E[EN-T]").expect("OPT4E on the Table VII roster");
    let price = eval.price(&opt4e).expect("OPT4E prices at its paper clock");
    let scale = equal_area_scale(&eval, &opt4e);
    println!("area equalization: OPT4E array ≈ {scale:.2}× the 32×32 MAC array silicon\n");

    println!("== GPT-2 decode sublayers (one token, 1024-token KV cache) ==");
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>8} {:>7}",
        "sublayer", "K", "MAC (us)", "OPT4E (us)", "speedup", "util%"
    );
    for (i, layer) in models::gpt2_decode_sublayers("L0", 1024).iter().enumerate() {
        let s = serial_layer(&eval, &opt4e, &price, layer, 100 + i as u64);
        let d = dense_layer(layer, 1.0, scale);
        println!(
            "{:<14} {:>6} {:>12.3} {:>12.3} {:>8.2} {:>7.1}",
            layer.name,
            layer.k,
            d.delay_us,
            s.delay_us,
            d.delay_us / s.delay_us,
            s.utilization * 100.0
        );
    }

    println!("\n== Whole networks (speedup over equal-area MAC TPE) ==");
    println!(
        "{:<16} {:>8} {:>14} {:>7}",
        "network", "speedup", "energy ratio", "util%"
    );
    for net in [
        models::mobilenet_v3(),
        models::resnet18(),
        models::vit_b16(),
        models::gpt2(),
    ] {
        let r = evaluate_network(&eval, &opt4e, &net, 42);
        println!(
            "{:<16} {:>8.2} {:>14.3} {:>7.1}",
            net.name,
            r.speedup,
            r.energy_ratio,
            r.utilization * 100.0
        );
    }
    println!(
        "\npaper: MobileViT ×1.89, ViT ×2.02, GPT-2 ×2.16 speedups; higher-K nets save more energy"
    );
}
