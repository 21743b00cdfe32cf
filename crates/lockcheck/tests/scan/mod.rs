//! The raw-lock scan the guardrail tests share: the one rule of the
//! deleted static pass (`unknown-lock`) the runtime checker cannot take
//! over, because a lock built from a raw `std::sync` primitive carries no
//! rank and so never reaches the held table.

/// Raw lock types: naming one outside `crates/lockcheck` builds a lock
/// the checker cannot see.
const RAW: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// `path:line: text` for every line of `src`, up to its first
/// `#[cfg(test)]`, that names a raw lock type outside a `//` comment.
pub fn raw_locks(path: &str, src: &str) -> Vec<String> {
    src.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|word| RAW.contains(&word))
        })
        .map(|(i, line)| format!("{path}:{}: {}", i + 1, line.trim()))
        .collect()
}
