//! The few `/proc` reads the benchmark needs: peak resident set size of
//! a process and the children of the coordinator (its worker processes).

use std::fs;

/// `VmHWM` (peak resident set) of `pid` in bytes, or `None` once the
/// process is gone.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
}

/// The `(ppid, state)` fields of `/proc/<pid>/stat`.
fn stat(pid: u32) -> Option<(u32, char)> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may contain spaces; the
    // fields after the last ')' are fixed.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    Some((ppid, state))
}

/// Whether `pid` is still running (a zombie counts as ended).
pub fn alive(pid: u32) -> bool {
    matches!(stat(pid), Some((_, state)) if state != 'Z' && state != 'X')
}

/// Every live process whose parent is `parent`.
pub fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut children: Vec<u32> = entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| matches!(stat(pid), Some((ppid, _)) if ppid == parent))
        .collect();
    children.sort_unstable();
    children
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_bytes(me).unwrap() > 0);
        assert!(alive(me));
        let child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        let pid = child.id();
        assert!(children_of(me).contains(&pid));
        let mut child = child;
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(!alive(pid));
    }
}
