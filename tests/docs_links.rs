//! Link check for the hand-written documentation pages: every relative
//! markdown link in `README.md` and `docs/*.md` must resolve to a file
//! that exists (anchors are stripped), and every `*.md` file a source
//! comment names must exist too. CI runs this alongside `cargo doc`'s
//! rustdoc link checks, so a renamed or deleted page breaks the build
//! instead of silently 404ing readers.

use std::path::PathBuf;

/// Extracts `](target)` link targets from markdown text, skipping code
/// fences (where `](` can appear in rendered output examples).
fn markdown_link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find("](") {
            let tail = &rest[open + 2..];
            let Some(close) = tail.find(')') else { break };
            out.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
    }
    out
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn doc_pages() -> Vec<PathBuf> {
    let root = repo_root();
    let mut pages = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries =
        std::fs::read_dir(&docs).unwrap_or_else(|e| panic!("docs/ directory must exist: {e}"));
    for entry in entries {
        let path = entry.expect("readable docs entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            pages.push(path);
        }
    }
    pages.sort();
    pages
}

#[test]
fn relative_links_in_docs_resolve() {
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for page in doc_pages() {
        let text = std::fs::read_to_string(&page)
            .unwrap_or_else(|e| panic!("{}: {e}", page.display()));
        let base = page.parent().expect("page has a parent directory");
        for target in markdown_link_targets(&text) {
            // External links, pure anchors, and mailto are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
                || target.starts_with('#')
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap_or(&target);
            checked += 1;
            let resolved = base.join(path_part);
            if !resolved.exists() {
                broken.push(format!(
                    "{}: link {:?} -> missing {}",
                    page.display(),
                    target,
                    resolved.display()
                ));
            }
        }
    }
    assert!(broken.is_empty(), "broken relative links:\n{}", broken.join("\n"));
    assert!(
        checked >= 5,
        "expected the docs pages to cross-link each other (found {checked} relative links); \
         did the link extraction break?"
    );
}

#[test]
fn docs_pages_exist_and_are_cross_linked() {
    let root = repo_root();
    for required in ["docs/ARCHITECTURE.md", "docs/HTTP_API.md"] {
        assert!(root.join(required).exists(), "{required} is part of the documented surface");
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    assert!(
        readme.contains("docs/ARCHITECTURE.md") && readme.contains("docs/HTTP_API.md"),
        "README must point readers at the docs pages"
    );
    // The README's curl details were moved to the cookbook; keep the
    // README a pointer rather than letting the examples drift apart.
    assert!(
        !readme.contains("curl -s http://127.0.0.1:7878/v2/evaluate"),
        "v2 curl examples live in docs/HTTP_API.md, not the README"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable source entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `*.md` names in the comment text of `line` (`//`, `///`, `//!`).
fn md_names_in_comment(line: &str) -> Vec<String> {
    let Some(comment) = line.trim_start().strip_prefix("//") else { return Vec::new() };
    comment
        .split(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| token.len() > 3 && token.ends_with(".md"))
        .map(str::to_string)
        .collect()
}

#[test]
fn md_files_named_in_source_comments_exist() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_sources(&root.join(dir), &mut sources);
    }
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for source in &sources {
        let text = std::fs::read_to_string(source)
            .unwrap_or_else(|e| panic!("{}: {e}", source.display()));
        for (n, line) in text.lines().enumerate() {
            for name in md_names_in_comment(line) {
                checked += 1;
                // Resolve against the repo root, or against the citing
                // file's directory or any of its ancestors (a crate-local
                // README).
                let found = root.join(&name).exists()
                    || source
                        .ancestors()
                        .skip(1)
                        .take_while(|dir| dir.starts_with(&root))
                        .any(|dir| dir.join(&name).exists());
                if !found {
                    broken.push(format!("{}:{}: {name}", source.display(), n + 1));
                }
            }
        }
    }
    assert!(broken.is_empty(), "source comments name missing pages:\n{}", broken.join("\n"));
    assert!(checked >= 5, "found only {checked} page names in comments; did extraction break?");
}
