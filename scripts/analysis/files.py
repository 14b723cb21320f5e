"""Source-file discovery for zerodb_analyzer.py.

One walker, one git query: the analyzer scans a set of repo-relative roots
for files with given extensions, either the whole tree or only what
changed against a git ref (plus untracked files) for the `--changed-only`
fast path. Unit tests live in scripts/tooling_test.py (files.py section).
"""

import os
import subprocess
import sys


def tree_files(repo_root, roots, extensions):
    """Absolute paths of every file under `roots` (relative to `repo_root`)
    whose name ends in one of `extensions`, in sorted walk order."""
    out = []
    for root in roots:
        for dirpath, dirs, names in os.walk(os.path.join(repo_root, root)):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(extensions):
                    out.append(os.path.join(dirpath, name))
    return out


def changed_files(repo_root, roots, extensions, base, tool):
    """Absolute paths, sorted, of the existing files under `roots` with one
    of `extensions` that differ from git ref `base` or are untracked. A
    failing git command prints `tool: git ... failed` and exits 2."""

    def git(*argv):
        result = subprocess.run(
            ["git", "-C", repo_root, *argv],
            capture_output=True, text=True, check=False)
        if result.returncode != 0:
            print(f"{tool}: git {' '.join(argv)} failed: "
                  f"{result.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
        return result.stdout.splitlines()

    names = set(git("diff", "--name-only", "--diff-filter=d", base, "--"))
    names |= set(git("ls-files", "--others", "--exclude-standard"))
    prefixes = tuple(root + "/" for root in roots)
    out = []
    for name in sorted(names):
        path = os.path.join(repo_root, name)
        if (name.endswith(extensions) and name.startswith(prefixes)
                and os.path.isfile(path)):
            out.append(path)
    return out
