"""The argv list of ci/console_script.sh and the golden stdout of each.

``script_argv`` reads the ``expect`` lines of the CI script, so the argv
list is kept in one place.  Each argv's stdout is kept in
``tests/golden/<golden_name(argv)>``; ``mismatch`` compares a fresh stdout
with it: labels, column names and JSON keys exactly, numeric tokens to
``REL_TOL`` relative (another numpy build may differ in the last bits).

Run as a script to bring the corpus up to the ``isosharp`` on the path:
it rewrites each file that is missing or whose ``mismatch`` is not None,
printing its name, its first difference and every numeric token whose
text moved (``moved_numbers``: line, old -> new, absolute and relative
change), keeps the files that match, and deletes the files of argv no
longer in the script:

    PYTHONPATH=src python tests/console_corpus.py
"""

import contextlib
import hashlib
import io
import os
import re
import shlex

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, os.pardir, "ci", "console_script.sh")
GOLDEN = os.path.join(HERE, "golden")
REL_TOL = 1e-12

_ZEROS = re.compile(r"\$\(printf '%0(\d+)d' 0\)")
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def script_argv():
    """(exit code, argv) of each ``expect`` line of ci/console_script.sh,
    its one command substitution (a run of zeros by printf) expanded."""
    with open(SCRIPT) as script:
        lines = [ln for ln in script if ln.startswith("expect ")]
    cases = []
    for line in lines:
        want, *argv = shlex.split(
            _ZEROS.sub(lambda m: "0" * int(m.group(1)), line))[1:]
        assert not any(c in arg for arg in argv for c in "$`"), line
        cases.append((int(want), argv))
    return cases


def golden_name(argv):
    """The corpus file name of an argv: its words joined by "_", cut at
    80 characters with a hash of the argv appended."""
    slug = re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)).strip("_")
    if len(slug) > 80:
        digest = hashlib.sha1("\0".join(argv).encode()).hexdigest()[:8]
        slug = f"{slug[:80]}-{digest}"
    return slug + ".out"


def run_quiet(argv):
    """(exit code, stdout) of ``isosharp argv``, run in process."""
    from isosharp.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def mismatch(expected, actual):
    """None if ``actual`` matches ``expected``, else the first difference.

    Both are split into text and numeric tokens; text must be equal, and
    numbers within ``REL_TOL`` of the larger magnitude, an integer literal
    matching only an integer literal.
    """
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return f"{len(want) // 2} numeric tokens expected, got {len(got) // 2}"
    for i, (a, b) in enumerate(zip(want, got)):
        if i % 2 == 0:
            if a != b:
                return f"text {a!r} expected, got {b!r}"
        elif (a.lstrip("+-").isdigit() != b.lstrip("+-").isdigit()
              or abs(float(a) - float(b))
              > REL_TOL * max(abs(float(a)), abs(float(b)))):
            return f"number {a} expected, got {b}"
    return None


def moved_numbers(expected, actual):
    """(line number, old, new) of each numeric token whose text differs
    between ``expected`` and ``actual``, compared line by line and token
    by token in order."""
    for i, (want, got) in enumerate(
            zip(expected.splitlines(), actual.splitlines()), start=1):
        for a, b in zip(_NUMBER.split(want)[1::2], _NUMBER.split(got)[1::2]):
            if a != b:
                yield i, a, b


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    names = set()
    for _, argv in script_argv():
        name = golden_name(argv)
        names.add(name)
        path = os.path.join(GOLDEN, name)
        out = run_quiet(argv)[1]
        old = ""
        if os.path.exists(path):
            with open(path) as f:
                old = f.read()
            diff = mismatch(old, out)
            if diff is None:
                continue
        else:
            diff = "missing"
        with open(path, "w") as f:
            f.write(out)
        print(f"rewrote {name}: {diff}")
        for line, a, b in moved_numbers(old, out):
            change = abs(float(b) - float(a))
            scale = max(abs(float(a)), abs(float(b)))
            print(f"  line {line}: {a} -> {b} (abs {change:.3g}, "
                  f"rel {change / scale if scale else 0.0:.3g})")
    for stale in set(os.listdir(GOLDEN)) - names:
        os.remove(os.path.join(GOLDEN, stale))
        print(f"removed {stale}")


if __name__ == "__main__":
    main()
