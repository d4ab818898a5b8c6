//! `sasm` — the command-line assembler, the workspace's equivalent of the
//! TuringAs tool the paper releases (§5).
//!
//! ```text
//! sasm asm  kernel.sass -o kernel.cubin   assemble text to a cubin
//! sasm dis  kernel.cubin                  disassemble a cubin to text
//! sasm lint kernel.sass                   report scheduling hazards (§5.1.4)
//! sasm fix  kernel.sass -o fixed.cubin    auto-repair stalls/waits, emit cubin
//! ```

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sasm asm  <input.sass> -o <output.cubin>\n  sasm dis  <input.cubin>\n  sasm lint <input.sass|input.cubin>\n  sasm fix  <input.sass> -o <output.cubin>"
    );
    ExitCode::from(2)
}

fn load_module(path: &str) -> Result<sass::Module, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"WCUB") {
        sass::Module::from_cubin(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = String::from_utf8(bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        sass::assemble(&text).map_err(|e| format!("{path}:{e}"))
    }
}

fn out_path(args: &[String]) -> Option<&str> {
    args.iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, input) = match (args.first(), args.get(1)) {
        (Some(c), Some(i)) => (c.as_str(), i.as_str()),
        _ => return usage(),
    };
    match cmd {
        "asm" | "fix" => {
            let Some(out) = out_path(&args) else {
                return usage();
            };
            let mut module = match load_module(input) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if cmd == "fix" {
                let n = sass::lint::fix_schedule(&mut module.insts);
                eprintln!("applied {n} schedule fixes");
                let insts = std::mem::take(&mut module.insts);
                module = module.with_insts(insts);
            }
            let remaining = sass::lint(&module.insts);
            for d in &remaining {
                eprintln!("warning: {d}");
            }
            if let Err(e) = std::fs::write(out, module.to_cubin()) {
                eprintln!("error: {out}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "{}: {} instructions, {} regs/thread, {} B smem -> {out}",
                module.info.name,
                module.insts.len(),
                module.info.num_regs,
                module.info.smem_bytes
            );
            ExitCode::SUCCESS
        }
        "dis" => match load_module(input) {
            Ok(m) => {
                println!(".kernel {}", m.info.name);
                println!(".smem {}", m.info.smem_bytes);
                println!(".params {}", m.info.param_bytes);
                print!("{}", sass::disassemble(&m.insts));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        "lint" => match load_module(input) {
            Ok(m) => {
                let diags = sass::lint(&m.insts);
                for d in &diags {
                    println!("{d}");
                }
                println!(
                    "{} finding(s) in {} instructions",
                    diags.len(),
                    m.insts.len()
                );
                if diags.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
