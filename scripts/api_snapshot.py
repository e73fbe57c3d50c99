#!/usr/bin/env python3
"""Write the public surface of the library crates to `api/<crate>.txt`.

Runs nightly rustdoc's JSON backend on each crate and lists every item
the crate itself defines (`crate_id == 0`) with `visibility == "public"`:
a header line `# public items: N`, then one sorted `kind path` line per
item. Methods, associated constants and fields are written `Type::name`;
a re-export is written under the module that re-exports it.

    python3 scripts/api_snapshot.py            # rewrite api/*.txt
    git diff --exit-code api/                  # what CI checks afterwards

The JSON layout is unstable, so the script refuses any `format_version`
other than the one it was written against (57, emitted by
`rustc 1.97.0-nightly (e50aa6fba 2026-05-19)`). Set `API_TOOLCHAIN` to
run a differently named toolchain (default `nightly`).
Standard library only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

FORMAT_VERSION = 57
CRATES = ["lsa-protocol", "lsa-field", "lsa-coding", "lsa-sim"]
ROOT = Path(__file__).resolve().parent.parent


def rustdoc_json(package, toolchain):
    subprocess.run(
        ["cargo", f"+{toolchain}", "rustdoc", "--offline", "-q", "-p", package,
         "--", "-Z", "unstable-options", "--output-format", "json"],
        cwd=ROOT, check=True, stderr=subprocess.DEVNULL,
    )
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target"))
    if not target.is_absolute():
        target = ROOT / target
    with open(target / "doc" / (package.replace("-", "_") + ".json")) as f:
        return json.load(f)


def owners(index, paths):
    """Map each member id (method, field, re-export) to its owner's path."""
    owner = {}

    def path_of(item_id):
        entry = paths.get(str(item_id))
        return "::".join(entry["path"]) if entry else None

    for key, item in index.items():
        inner = item["inner"]
        if "struct" in inner:
            kind = inner["struct"]["kind"]
            fields = kind.get("plain", {}).get("fields", []) if isinstance(kind, dict) else []
            if isinstance(kind, dict) and "tuple" in kind:
                fields = [f for f in kind["tuple"] if f is not None]
            for field in fields:
                owner[str(field)] = path_of(key)
        elif "enum" in inner:
            for variant in inner["enum"]["variants"]:
                owner[str(variant)] = path_of(key)
        elif "trait" in inner:
            for member in inner["trait"]["items"]:
                owner[str(member)] = path_of(key)
        elif "module" in inner:
            for member in inner["module"]["items"]:
                owner.setdefault(str(member), path_of(key))
        elif "impl" in inner:
            target = inner["impl"]["for"]
            resolved = target.get("resolved_path") if isinstance(target, dict) else None
            name = path_of(resolved["id"]) if resolved else None
            for member in inner["impl"]["items"]:
                owner[str(member)] = name or resolved and resolved["path"]
    return owner


def snapshot(doc):
    if doc["format_version"] != FORMAT_VERSION:
        sys.exit(f"rustdoc JSON format_version {doc['format_version']}, expected {FORMAT_VERSION}")
    index, paths = doc["index"], doc["paths"]
    owner = owners(index, paths)
    lines = []
    for key, item in index.items():
        if item["crate_id"] != 0 or item["visibility"] != "public":
            continue
        kind = next(iter(item["inner"]))
        if kind == "use":
            name = item["inner"]["use"]["name"]
            path = f"{owner.get(key)}::{name}"
        elif str(key) in paths and paths[str(key)]["crate_id"] == 0:
            path = "::".join(paths[str(key)]["path"])
        else:
            path = f"{owner.get(key)}::{item['name']}"
        lines.append(f"{kind} {path}")
    lines.sort()
    return [f"# public items: {len(lines)}"] + lines


def main():
    toolchain = os.environ.get("API_TOOLCHAIN", "nightly")
    out_dir = ROOT / "api"
    out_dir.mkdir(exist_ok=True)
    for package in CRATES:
        lines = snapshot(rustdoc_json(package, toolchain))
        crate = package.replace("-", "_")
        (out_dir / f"{crate}.txt").write_text("\n".join(lines) + "\n")
        print(f"{crate}: {lines[0]}")


if __name__ == "__main__":
    main()
