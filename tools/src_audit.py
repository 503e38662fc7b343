#!/usr/bin/env python3
"""Audits src/ for code and options that nothing uses.

Two checks, each compared against tools/src_audit_allowlist.txt:

  reach   Builds the tier-1 tree without tests, and perfbench, with
          per-function sections, garbage-collected links, and inline
          functions kept out of line (-fkeep-inline-functions -fno-inline).
          Lists every named graphrare:: function in the module archives
          that no example, bench or perfbench binary contains.
  fields  Scans the fields of every src/ struct named *Options and lists
          each one that nothing in src/, tests/, bench/, examples/ or
          perfbench/src ever sets.

The audit fails on a finding that the allowlist does not name, and on an
allowlist entry that is no longer a finding (the function became reachable
or the field became set), so the list can only shrink by editing it.

  python3 tools/src_audit.py                # both checks (~8 min on 4 cores)
  python3 tools/src_audit.py --check fields # the scan alone, seconds
  python3 tools/src_audit.py --build-dir D --jobs N

The field scan is a lexical heuristic, not a compiler pass. A set is an
assignment (`x.f = ...`, `x->f += ...`, `++x.f`), a nested set
(`x.f.g = ...`), a mutating call (`x.f.push_back(...)`), an address taken
(`&x.f`), a designated initialiser (`.f = ...`) or a positional aggregate
initialiser (`T{a, b}` sets T's first two fields). It resolves `x` through
the nearest declaration in the same file or its header; when it cannot,
the set counts for every struct that has a field of that name, so the scan
may miss a dead field but does not report a live one.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "src_audit_allowlist.txt")
SCAN_DIRS = ["src", "tests", "bench", "examples",
             os.path.join("perfbench", "src")]
SOURCE_EXT = (".h", ".cc", ".cpp")
REACH_FLAGS = ("-ffunction-sections -fdata-sections "
               "-fkeep-inline-functions -fno-inline")
LINK_FLAGS = "-Wl,--gc-sections"


# ---------------------------------------------------------------- allowlist

def read_allowlist(path):
    """{"reach": {name: reason}, "fields": {name: reason}}."""
    entries = {"reach": {}, "fields": {}}
    section = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            m = re.fullmatch(r"\[(reach|fields)\]", line.strip())
            if m:
                section = m.group(1)
                continue
            name, sep, reason = line.partition(" -- ")
            if section is None or not sep or not reason.strip():
                sys.exit(f"{path}:{lineno}: want '<name> -- <reason>' "
                         "under [reach] or [fields]")
            entries[section][name.strip()] = reason.strip()
    return entries


def compare(kind, found, allowed):
    """Prints the differences; returns how many there are."""
    problems = 0
    for name in sorted(found - set(allowed)):
        print(f"{kind}: NEW finding, not allowlisted: {name}")
        problems += 1
    for name in sorted(set(allowed) - found):
        print(f"{kind}: allowlisted but no longer a finding "
              f"(remove its entry): {name}")
        problems += 1
    for name in sorted(found & set(allowed)):
        print(f"{kind}: kept: {name}")
    return problems


# -------------------------------------------------------------------- reach

def run(cmd, log):
    print("+", " ".join(cmd), flush=True)
    with open(log, "a", encoding="utf-8") as out:
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            sys.exit(f"command failed; see {log}")


def nm_names(paths, types):
    names = set()
    for path in paths:
        out = subprocess.run(["nm", "-C", "--defined-only", path],
                             capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and (types is None or parts[1] in types):
                names.add(parts[2])
    return names


def executables(directory):
    found = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            found.append(path)
    return found


def unreached_functions(build_dir, jobs):
    tree = os.path.join(build_dir, "tree")
    perf = os.path.join(build_dir, "perf")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    common = [f"-DCMAKE_CXX_FLAGS={REACH_FLAGS}",
              f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
              "-DCMAKE_BUILD_TYPE=Release"]
    run(["cmake", "-S", ROOT, "-B", tree, "-DGRAPHRARE_BUILD_TESTS=OFF"]
        + common, log)
    run(["cmake", "--build", tree, f"-j{jobs}"], log)
    run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf] + common,
        log)
    run(["cmake", "--build", perf, f"-j{jobs}", "--target", "perfbench",
         "perfbench_selftest"], log)

    archives = []
    for dirpath, _, files in os.walk(os.path.join(tree, "src")):
        archives += [os.path.join(dirpath, f) for f in files
                     if f.startswith("libgraphrare_") and f.endswith(".a")]
    if not os.path.exists(os.path.join(tree, "bench", "micro_kernels")):
        sys.exit("bench/micro_kernels was not built (it needs Google "
                 "Benchmark); the audit counts it as a caller")
    binaries = (executables(os.path.join(tree, "examples"))
                + executables(os.path.join(tree, "bench"))
                + [os.path.join(perf, "perfbench"),
                   os.path.join(perf, "perfbench_selftest")])
    lib = {n for n in nm_names(archives, {"T", "W"}) if is_named_function(n)}
    return lib - nm_names(binaries, None)


def is_named_function(symbol):
    """True for a function of the project's own namespace that someone
    wrote: not a lambda, a file-local helper, a constructor, destructor or
    assignment operator (the compiler generates most of those), nor a
    library template whose return type merely names a project type."""
    if "{lambda" in symbol or "(anonymous namespace)" in symbol:
        return False
    # Operators spelled with brackets would confuse the bracket count.
    symbol = re.sub(r"operator(<<=?|>>=?|<=>|<=|>=|<|>|->\*?|\(\)|\[\])",
                    "operator_", symbol)
    name, depth = [], 0  # the qualified name: text before the top-level "("
    for c in symbol:
        if c == "(" and depth == 0:
            break
        depth += c in "<["
        depth -= c in ">]"
        name.append(c)
    plain = drop_nested("".join(name), "<", ">").split(" ")[-1]
    if not plain.startswith("graphrare::"):
        return False
    parts = plain.split("::")
    last = parts[-1]
    return last not in (parts[-2], "~" + parts[-2], "operator=")


# ------------------------------------------------------------------- fields

def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, keeping line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files():
    for d in SCAN_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in sorted(files):
                if f.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, f)


def matching_brace(text, open_index):
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def drop_nested(text, open_char, close_char):
    out, depth = [], 0
    for c in text:
        if c == open_char:
            depth += 1
        elif c == close_char:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


FIELD_RE = re.compile(
    r"^(?:mutable\s+)?((?:[\w:]+\s*)+?[&*]?)\s+(\w+)\s*(?:=.*|\{.*\})?$",
    re.S)
SKIP_WORDS = ("static", "using", "friend", "enum", "struct", "class",
              "typedef", "public", "private", "protected", "template")


def struct_fields(body):
    """[(field, type)] of the data members declared directly in `body`."""
    flat, depth = [], 0
    for c in body:  # depth-0 text; an inline function body ends a statement
        if c == "{":
            if depth == 0:
                before = "".join(flat).rstrip()
                is_function = re.search(r"(\)|\bconst|\boverride|\bnoexcept)$",
                                        before)
                flat.append(";" if is_function else "{}")
            depth += 1
        elif c == "}":
            depth -= 1
        elif depth == 0:
            flat.append(c)
    fields = []
    for stmt in "".join(flat).split(";"):
        stmt = re.sub(r"^\s*(public|private|protected)\s*:", "", stmt).strip()
        if not stmt or stmt.split()[0] in SKIP_WORDS:
            continue
        plain = drop_nested(stmt, "<", ">")
        if "(" in plain.split("=")[0]:
            continue  # a method declaration
        m = FIELD_RE.match(plain)
        if m:
            type_name = m.group(1).strip().rstrip("&*").strip()
            fields.append((m.group(2), type_name))
    return fields


def options_structs(texts):
    """{qualified name: [(field, type)]} for src/ structs named *Options.

    A nested `struct Options` is named after its enclosing class.
    """
    structs = {}
    for path, text in texts.items():
        if not path.startswith(os.path.join(ROOT, "src") + os.sep):
            continue
        for m in re.finditer(r"\bstruct\s+(\w*Options)\s*\{", text):
            name = m.group(1)
            if name == "Options":
                outer = None
                for c in re.finditer(r"\b(?:class|struct)\s+(\w+)[^;{]*\{",
                                     text[:m.start()]):
                    if matching_brace(text, c.end() - 1) > m.start():
                        outer = c.group(1)
                if outer is None:
                    continue
                name = f"{outer}::Options"
            body_end = matching_brace(text, m.end() - 1)
            structs[name] = struct_fields(text[m.end():body_end])
    return structs


def type_key(type_text, structs):
    """Maps a spelled type (`nn::Adam::Options`) to a struct key or None."""
    parts = [p for p in type_text.split("::") if p]
    if not parts:
        return None
    if parts[-1] == "Options" and len(parts) >= 2:
        key = f"{parts[-2]}::Options"
    else:
        key = parts[-1]
    return key if key in structs else None


DECL_TEMPLATE = (r"\b((?:\w+::)*\w+)\s*(?:const\s*)?[&*]*\s*(?:const\s+)?"
                 r"\b{name}\b\s*(?=[;=,){{(\[])")


def resolve(var, pos, text, header_text, structs, cache):
    """Struct key of variable `var` as declared nearest before `pos`."""
    key = (id(text), var)
    if key not in cache:
        decl = re.compile(DECL_TEMPLATE.format(name=re.escape(var)))
        own = [(m.start(), type_key(m.group(1), structs))
               for m in decl.finditer(text)]
        hdr = [(-1, type_key(m.group(1), structs))
               for m in decl.finditer(header_text)]
        cache[key] = hdr + own  # a None type (auto, a class) stays unresolved
    decls = cache[key]
    before = [k for p, k in decls if p < pos]
    if before:
        return before[-1]
    return decls[0][1] if decls else None


SET_RE = re.compile(
    r"(?P<addr>&\s*)?(?P<chain>\b\w+(?:\s*(?:\.|->)\s*\w+)*)\s*(?:\.|->)\s*"
    r"(?P<field>\w+)\s*(?P<op>[-+*/|&]?=(?!=)|\+\+|--|\()?")
MUTATORS = {"push_back", "emplace_back", "assign", "resize", "insert",
            "clear", "append"}
PRE_INC_RE = re.compile(r"(?:\+\+|--)\s*(\b\w+(?:\s*(?:\.|->)\s*\w+)+)")
DESIGNATED_RE = re.compile(r"[{,]\s*\.(\w+)\s*=(?!=)")
AGGREGATE_RE = re.compile(r"\b((?:\w+::)*\w+)(?:\s+\w+)?\s*\{([^{}]+)\}")


def set_fields(texts, structs):
    """{(struct key or None, field)} of every set the scan recognises."""
    sets = set()
    cache = {}
    for path, text in texts.items():
        stem, ext = os.path.splitext(path)
        header_text = texts.get(stem + ".h", "") if ext != ".h" else ""

        def record(chain, field, pos):
            # x.a.b = ... sets b, and through it a, on the resolved types.
            names = [p.strip() for p in re.split(r"\.|->", chain)]
            owner = resolve(names[0], pos, text, header_text, structs, cache)
            for hop in names[1:] + [field]:
                sets.add((owner, hop))
                if owner is not None:
                    owner = type_key(dict(structs[owner]).get(hop, ""),
                                     structs)

        for m in SET_RE.finditer(text):
            # `&` takes an address only as a unary operator: not in `a && b.f`.
            unary = (m.group("addr")
                     and text[max(0, m.start() - 80):m.start()].rstrip()[-1:]
                     in ("", *"(,={;!?:"))
            chain, field, op = m.group("chain", "field", "op")
            if op == "(":  # a call: x.f.push_back(...) sets f
                if field not in MUTATORS or not re.search(r"\.|->", chain):
                    continue
                chain, field = re.fullmatch(r"(.*?)\s*(?:\.|->)\s*(\w+)",
                                            chain).groups()
            elif not (unary or op):
                continue
            record(chain, field, m.start())
        for m in PRE_INC_RE.finditer(text):
            chain, _, field = m.group(1).replace("->", ".").rpartition(".")
            record(chain, field.strip(), m.start())
        for m in DESIGNATED_RE.finditer(text):
            sets.add((None, m.group(1)))
        for m in AGGREGATE_RE.finditer(text):
            owner = type_key(m.group(1), structs)
            if owner is None:
                continue
            args = drop_nested(drop_nested(m.group(2), "(", ")"), "<", ">")
            count = len([a for a in args.split(",") if a.strip()])
            for field, _ in structs[owner][:count]:
                sets.add((owner, field))
    return sets


def never_set_fields():
    texts = {}
    for path in source_files():
        with open(path, encoding="utf-8") as f:
            texts[path] = strip_comments_and_strings(f.read())
    structs = options_structs(texts)
    sets = set_fields(texts, structs)
    unresolved = {field for owner, field in sets if owner is None}
    dead = set()
    for name, fields in structs.items():
        for field, _ in fields:
            if (name, field) not in sets and field not in unresolved:
                dead.add(f"{name}::{field}")
    total = sum(len(f) for f in structs.values())
    print(f"fields: {total} fields in {len(structs)} *Options structs, "
          f"{len(dead)} never set")
    return dead


# --------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", choices=["all", "reach", "fields"],
                        default="all")
    parser.add_argument("--build-dir",
                        default=os.path.join(ROOT, "build-audit"))
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1))
    args = parser.parse_args()

    allowed = read_allowlist(ALLOWLIST)
    problems = 0
    if args.check in ("all", "fields"):
        problems += compare("fields", never_set_fields(), allowed["fields"])
    if args.check in ("all", "reach"):
        found = unreached_functions(os.path.abspath(args.build_dir),
                                    args.jobs)
        print(f"reach: {len(found)} named functions in no binary")
        problems += compare("reach", found, allowed["reach"])
    if problems:
        print(f"src audit FAILED: {problems} difference(s) from "
              f"{os.path.relpath(ALLOWLIST, ROOT)}")
        return 1
    print("src audit passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
