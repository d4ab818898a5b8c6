//! `doclinks` — CI gate for relative links in the Markdown docs.
//!
//! Scans `README.md`, `EXPERIMENTS.md` and every `*.md` under `docs/`
//! (recursively) for inline links and images, and fails — listing every
//! offender — when a relative link points at a file that does not exist or
//! at a heading anchor that no heading in the target file produces.
//! Anchors are matched against GitHub's slug rules (lowercase, punctuation
//! stripped, spaces to hyphens, `-1`/`-2`/… suffixes for duplicates).
//!
//! What is deliberately *not* checked: absolute URLs (`http://`, `https://`,
//! `mailto:` — this tool must work offline), autolinks, and anything inside
//! fenced code blocks (```` ``` ````), where bracketed text is code, not a
//! link.
//!
//! Flags: `--root DIR` (repo root, default `.`), `--verbose` (print every
//! checked link). Exit code 0 = all links resolve, 1 = at least one broken.

use bench::report::check_args;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// GitHub-style slugs for every heading in a Markdown file, in order.
/// Duplicate headings get `-1`, `-2`, … suffixes, like GitHub renders them.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut counts: HashMap<String, u32> = HashMap::new();
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let title = line.trim_start_matches('#').trim();
        let slug = slugify(title);
        let n = counts.entry(slug.clone()).or_insert(0);
        slugs.push(if *n == 0 { slug } else { format!("{slug}-{n}") });
        *n += 1;
    }
    slugs
}

/// GitHub's anchor algorithm, close enough for our headings: drop inline
/// markup characters, lowercase, keep alphanumerics/hyphens/underscores,
/// map spaces to hyphens, drop everything else.
fn slugify(title: &str) -> String {
    let mut out = String::new();
    for c in title.chars() {
        match c {
            '`' | '*' | '[' | ']' | '(' | ')' => {}
            ' ' => out.push('-'),
            '-' | '_' => out.push(c),
            c if c.is_alphanumeric() => out.extend(c.to_lowercase()),
            _ => {}
        }
    }
    out
}

/// Extract inline `[text](target)` / `![alt](target)` targets outside
/// fenced code blocks and inline code spans.
fn link_targets(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Strip inline code spans so `[i](j)` inside backticks is ignored.
        let mut clean = String::with_capacity(line.len());
        let mut in_code = false;
        for c in line.chars() {
            if c == '`' {
                in_code = !in_code;
            } else if !in_code {
                clean.push(c);
            }
        }
        let bytes = clean.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let start = i + 2;
                if let Some(off) = clean[start..].find(')') {
                    let target = clean[start..start + off].trim();
                    // "](url "title")" form: keep the url part only.
                    let target = target.split_whitespace().next().unwrap_or("");
                    if !target.is_empty() && !is_external(target) {
                        out.push((lineno + 1, target.to_string()));
                    }
                    i = start + off;
                }
            }
            i += 1;
        }
    }
    out
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://") || target.starts_with("https://") || target.starts_with("mailto:")
}

fn collect_md(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_md(&p, out);
        } else if p.extension().is_some_and(|e| e == "md") {
            out.push(p);
        }
    }
}

fn main() {
    check_args("doclinks", &[&["--root DIR", "--verbose"]]);
    let args: Vec<String> = std::env::args().collect();
    let root = bench::report::flag_value(&args, "--root").unwrap_or_else(|| ".".to_string());
    let verbose = args.iter().any(|a| a == "--verbose");
    let root = PathBuf::from(root);

    let mut files = Vec::new();
    for name in ["README.md", "EXPERIMENTS.md"] {
        let p = root.join(name);
        assert!(
            p.is_file(),
            "{} not found under --root {}",
            name,
            root.display()
        );
        files.push(p);
    }
    collect_md(&root.join("docs"), &mut files);

    let mut slug_cache: HashMap<PathBuf, Vec<String>> = HashMap::new();
    let mut checked = 0usize;
    let mut broken: Vec<String> = Vec::new();

    for file in &files {
        let text = std::fs::read_to_string(file).expect("read markdown file");
        let dir = file.parent().unwrap();
        for (lineno, target) in link_targets(&text) {
            checked += 1;
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a.to_string())),
                None => (target.as_str(), None),
            };
            // Bare "#anchor" refers to the current file.
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if verbose {
                eprintln!("[doclinks] {}:{} -> {}", file.display(), lineno, target);
            }
            if !resolved.exists() {
                broken.push(format!(
                    "{}:{}: broken link `{}` (no such file {})",
                    file.display(),
                    lineno,
                    target,
                    resolved.display()
                ));
                continue;
            }
            if let Some(anchor) = anchor {
                if resolved.extension().is_none_or(|e| e != "md") {
                    continue; // anchors only checked in markdown targets
                }
                let slugs = slug_cache.entry(resolved.clone()).or_insert_with(|| {
                    heading_slugs(&std::fs::read_to_string(&resolved).expect("read link target"))
                });
                if !slugs.contains(&anchor) {
                    broken.push(format!(
                        "{}:{}: broken anchor `{}` (no heading slug `{}` in {})",
                        file.display(),
                        lineno,
                        target,
                        anchor,
                        resolved.display()
                    ));
                }
            }
        }
    }

    eprintln!(
        "[doclinks] {} files, {} relative links checked, {} broken",
        files.len(),
        checked,
        broken.len()
    );
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("[doclinks] {b}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_match_github_rules() {
        let text =
            "# Hello, World!\n## `code` and *stars*\n## Dup\n## Dup\n```\n# not a heading\n```\n";
        assert_eq!(
            heading_slugs(text),
            vec!["hello-world", "code-and-stars", "dup", "dup-1"]
        );
    }

    #[test]
    fn links_skip_code_and_urls() {
        let text = "a [x](y.md) b `[c](d.md)` \n```\n[e](f.md)\n```\n[g](https://h) [i](j.md#k)\n";
        let t: Vec<String> = link_targets(text).into_iter().map(|(_, s)| s).collect();
        assert_eq!(t, vec!["y.md", "j.md#k"]);
    }
}
