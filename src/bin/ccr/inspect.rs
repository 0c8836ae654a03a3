//! The inspection commands: `list`, `regions`, `potential`, `print`,
//! `trace` — one program at a time, no measurement.

use ccr::report::{pct, Table};
use ccr::workloads::NAMES;

use ccr_bench::RUN_EMU;

use crate::{load_program, scenario_of, target_of, CliError, Flags};

pub(crate) fn cmd_list(_: &Flags) -> Result<(), CliError> {
    for name in NAMES {
        println!("{name}");
    }
    Ok(())
}

pub(crate) fn cmd_regions(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    let compiled = ccr::compile_ccr(&p, &p, &scenario_of(flags).compile_config())?;
    let mut table = Table::new([
        "region",
        "shape",
        "class",
        "instrs",
        "inputs",
        "outputs",
        "mem",
        "invalidations",
    ]);
    for info in &compiled.regions {
        table.row([
            info.id.to_string(),
            if info.spec.is_cyclic() {
                "cyclic".to_string()
            } else if info.spec.is_function_level() {
                "call".to_string()
            } else {
                "acyclic".to_string()
            },
            format!("{:?}", info.spec.class),
            info.spec.static_instrs.to_string(),
            info.spec.input_count().to_string(),
            info.spec.live_outs.len().to_string(),
            info.spec.mem_count().to_string(),
            info.invalidation_sites.to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

pub(crate) fn cmd_potential(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    let pot = ccr::measure::reuse_potential(&p, RUN_EMU)?;
    println!("dynamic instructions : {}", pot.total_instrs);
    println!("block-level reusable : {}", pct(pot.block_ratio()));
    println!("region-level reusable: {}", pct(pot.region_ratio()));
    Ok(())
}

pub(crate) fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    use ccr::profile::{EmuError, ExecEvent, NullCrb, TraceSink};
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;

    struct Tracer {
        remaining: u64,
    }
    impl TraceSink for Tracer {
        fn on_exec(&mut self, e: &ExecEvent<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let inputs: Vec<String> = e.inputs.iter().map(|v| v.as_int().to_string()).collect();
            let result = e
                .result
                .map(|v| format!(" => {}", v.as_int()))
                .unwrap_or_default();
            let mem = e
                .mem
                .map(|m| {
                    format!(
                        "  [{} {}[{}] = {}]",
                        if m.is_store { "store" } else { "load" },
                        m.object,
                        m.index,
                        m.value.as_int()
                    )
                })
                .unwrap_or_default();
            println!(
                "{:>4} {}:{}  {:<40} in=({}){}{}",
                e.instr.id,
                e.func,
                e.block,
                e.instr.to_string(),
                inputs.join(", "),
                result,
                mem
            );
        }
    }
    let mut tracer = Tracer {
        remaining: flags.limit,
    };
    // Bound emulation near the requested trace length; hitting the
    // step limit after the trace is complete is expected.
    let limited = ccr::profile::EmuConfig {
        max_instrs: flags.limit.saturating_add(1),
        ..RUN_EMU
    };
    match ccr::profile::Emulator::with_config(&p, limited).run(&mut NullCrb, &mut tracer) {
        Ok(_) | Err(EmuError::StepLimit) => Ok(()),
        Err(e) => Err(e.to_string().into()),
    }
}

pub(crate) fn cmd_print(flags: &Flags) -> Result<(), CliError> {
    let spec = target_of(flags)?;
    let p = load_program(&spec, flags.input, flags.scale)?;
    if flags.annotated {
        let compiled = ccr::compile_ccr(&p, &p, &scenario_of(flags).compile_config())?;
        print!("{}", compiled.annotated);
    } else {
        print!("{p}");
    }
    Ok(())
}
