"""Workload ``cli``: every README ``dualkit`` command as a fresh process,
one at a time, plus five fault repros.

Commands run as ``python3 -m dualkit.cli ...`` with ``src`` on the path,
exactly as the README writes them; the seed only orders them within a
pass.  A repro succeeds when it ends with the exit code the README's
contract gives (0 success, 1 domain failure, 2 usage error) and no
traceback; each is counted as failed until the fault is mended.  The
traced run executes the same commands in-process through click's test
runner.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import dualkit.cli as cli
import dualkit.equivariant as eq
from click.testing import CliRunner

from common import Job
import refs

SRC = Path(__file__).resolve().parent.parent / "src"
SPAN_L = '{"dom":2,"cod":2,"matrix":[[1,0],[1,1]]}'
SPAN_R = '{"dom":2,"cod":2,"matrix":[[0,1],[1,0]]}'
# (key, arguments, expected exit code); "{dir}" is the input directory
README = (
    ("verify-all", ["diagrams", "verify", "--all"], 0),
    ("verify-trace", ["diagrams", "verify", "--trace", "dual-euler-twist"], 0),
    ("span-compose", ["span", "compose", "--left", SPAN_L, "--right", SPAN_R],
     0),
    ("span-dual-check", ["span", "dual-check", "--size", "3"], 0),
    ("span-cofiber", ["span", "cofiber", "--shape", "backward", "--sizes",
                      "2,1"], 0),
    ("evconst-cofiber", ["evconst", "cofiber", "--morphism",
                         '{"free": [[6]], "explicit": {}}'], 0),
    ("evconst-split", ["evconst", "split", "--m", "12"], 0),
    ("idem-clopen", ["idem", "clopen", "--model", "evconst", "--object",
                     "S/2"], 0),
    ("idem-complement", ["idem", "complement", "--model", "evconst",
                         "--object", "S/3"], 0),
    ("equi-lattice", ["equi", "lattice", "--group", "s3"], 0),
    ("equi-collapse", ["equi", "collapse", "--group", "d4", "--format",
                       "json"], 0),
    ("equi-validate", ["equi", "validate", "--group", "d4", "--cert",
                       "{dir}/cert.json"], 0),
)
REPROS = (
    ("weyl-class-range", ["equi", "weyl", "--group", "s3", "--class", "99"],
     2),
    ("cofiber-not-object", ["evconst", "cofiber", "--morphism", "[1]"], 2),
    ("collapse-bogus-rep", ["equi", "collapse", "--rep", "totally-bogus"], 2),
    ("validate-wrong-group", ["equi", "validate", "--group", "{dir}/c9.json",
                              "--cert", "{dir}/c4-cert.json"], 1),
    ("span-missing-matrix", ["span", "compose", "--left", '{"dom":2,"cod":2}',
                             "--right", SPAN_R], 2),
)


@dataclasses.dataclass
class Inputs:
    commands: list       # (key, argv, expected exit code)


@dataclasses.dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    traceback: bool


def _cert(group: str) -> dict:
    poset = eq.enumerate_subgroup_classes(eq.get_group(group))
    return eq.generate_collapse_certificate(poset, "reduced-regular").to_json()


def build(seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "cert.json").write_text(json.dumps(_cert("d4")))
    (workdir / "c4-cert.json").write_text(json.dumps(_cert("c4")))
    (workdir / "c9.json").write_text(json.dumps(
        {"degree": 9, "generators": [[2, 3, 4, 5, 6, 7, 8, 9, 1]]}))
    commands = [(key, [a.replace("{dir}", str(workdir)) for a in argv], code)
                for key, argv, code in README + REPROS]
    return Inputs(commands)


def _run(argv) -> Outcome:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "dualkit.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    return Outcome(out.returncode, out.stdout, "Traceback" in out.stderr)


def _run_inprocess(runner, argv) -> Outcome:
    res = runner.invoke(cli.main, argv)
    crashed = res.exception is not None and \
        not isinstance(res.exception, SystemExit)
    return Outcome(res.exit_code, res.stdout, crashed)


def _expect(code):
    return lambda out: out.code == code and not out.traceback


def jobs(inputs: Inputs) -> list:
    readme = {key for key, _, _ in README}
    return [Job((key,), "readme" if key in readme else "repro",
                lambda argv=argv: _run(argv), _expect(code))
            for key, argv, code in inputs.commands]


def traced_jobs(inputs: Inputs, jobs_list) -> list:
    """The same commands, run in-process through click's test runner."""
    runner = CliRunner()
    argv = {key: a for key, a, _ in inputs.commands}
    return [dataclasses.replace(
        job, run=lambda a=argv[job.key[0]]: _run_inprocess(runner, a))
        for job in jobs_list]


def coeff_digits(outputs: dict) -> int:
    """Longest run of digits in the commands' standard output."""
    return max((len(m) for out in outputs.values()
                for m in re.findall(r"\d+", out.stdout)), default=1)


def peak_rss_kib() -> int:
    """Largest resident set of any finished child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def cli_metrics(tracer, lo: int, hi: int, outputs: dict) -> dict:
    """cli.* metrics: median start-up of five fresh interpreters importing
    dualkit.cli, and the traced pass's command time and output size."""
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dualkit.cli"],
                       env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        starts.append(time.perf_counter() - t0)
    command_s = sum(tracer.end[i] - tracer.start[i] for i in range(lo, hi)
                    if tracer.parent[i] == -1)
    return {"cli.startup_s": statistics.median(starts),
            "cli.command_s": command_s,
            "cli.output_bytes": sum(len(o.stdout.encode()) for o in
                                    outputs.values() if hasattr(o, "stdout"))}


# ------------------------------------------------------------------ checks

def parse_text(text: str):
    """Parse the CLI's text format: ``key: value`` and ``key:`` lines,
    ``- value`` and ``-`` list items, two spaces per nesting level.
    Scalars stay strings."""
    lines = [(len(ln) - len(ln.lstrip(" ")), ln.strip())
             for ln in text.splitlines() if ln.strip()]

    def block(i, indent):
        if i >= len(lines) or lines[i][0] < indent:
            return [], i
        is_list = lines[i][1] == "-" or lines[i][1].startswith("- ")
        out = [] if is_list else {}
        while i < len(lines) and lines[i][0] == indent:
            body = lines[i][1]
            if is_list:
                if body == "-":
                    val, i = block(i + 1, indent + 2)
                else:
                    val, i = body[2:], i + 1
                out.append(val)
            else:
                key, _, val = body.partition(":")
                if val.strip():
                    out[key], i = val.strip(), i + 1
                else:
                    out[key], i = block(i + 1, indent + 2)
        return out, i

    return block(0, 0)[0]


def _steps(name: str) -> int:
    path = SRC / "dualkit" / "diagram" / "data" / f"{name}.json"
    return len(json.loads(path.read_text())["steps"])


def _ev_json(data) -> dict:
    """A morphism from parsed text back to the JSON shape."""
    def obj(o):
        return {"f": int(o["f"]), "exc": o["exc"] or {}}
    return {"dom": obj(data["dom"]), "cod": obj(data["cod"]),
            "free": data["free"] or [], "explicit": data["explicit"] or {}}


def _check_one(key: str, data: dict):
    """None when the parsed output of README command ``key`` is right,
    else what is wrong."""
    if key in ("verify-all", "verify-trace"):
        traces = data["traces"]
        names = {t["name"] for t in traces}
        want = {"dual-euler-twist"} if key == "verify-trace" else \
            {p.stem for p in (SRC / "dualkit" / "diagram" /
                              "data").glob("*.json")}
        if data["ok"] != "True" or names != want or not all(
                t["ok"] == "True" and
                int(t["steps_applied"]) == _steps(t["name"])
                for t in traces):
            return "a trace did not replay in full"
    elif key == "span-compose":
        want = refs.pullback_compose(json.loads(SPAN_L)["matrix"],
                                     json.loads(SPAN_R)["matrix"])
        if refs.ints(data["result"]["matrix"]) != want:
            return "differs from pullback counting"
    elif key == "span-dual-check":
        eta = [[int(k % 4 == 0)] for k in range(9)]
        if data["ok"] != "True" or refs.ints(data["eta"]["matrix"]) != eta or \
                refs.ints(data["eps"]["matrix"]) != [list(r) for r in zip(*eta)]:
            return "diagonal duality data wrong"
    elif key == "span-cofiber":
        rows = refs.ints(data["input"]["matrix"])
        zero = sum(1 for r in rows if not any(r))
        if rows != [[1, 0]] or int(data["cofiber"]["obj"]) != zero:
            return "cofiber of a backward map is not the unhit rows"
    elif key == "evconst-cofiber":
        obj = data["cofiber"]["json"]
        if obj["f"] != "0" or obj["exc"] != {"2": "1", "3": "1"}:
            return "coker of 6 is not S/2 + S/3"
    elif key == "evconst-split":
        u, v = _ev_json(data["witness_u"]), _ev_json(data["witness_v"])
        if data["torsion_part"] != "S/2 + S/3" or not (
                refs.ev_identity(v, u, u["dom"]) and refs.ev_identity(u, v, u["cod"])):
            return "S/12 part or witnesses wrong"
    elif key == "idem-clopen":
        r, i = _ev_json(data["r"]), _ev_json(data["i"])
        if data["ok"] != "True" or not refs.ev_identity(r, i, i["dom"]):
            return "r o i != id_E"
    elif key == "idem-complement":
        if data["ok"] != "True" or data["smash_with_complement"] != "0" or \
                data["E"] != "S/3":
            return "complement does not annihilate E"
    elif key == "equi-lattice":
        classes = data["classes"]
        sizes = [int(c["class_size"]) for c in classes]
        if (len(sizes), sum(sizes)) != (4, 6) or not all(
                int(c["class_size"]) * int(c["subgroup_order"]) * int(w) == 6
                for c, w in zip(classes, data["weyl_orders"], strict=True)):
            return "S3 lattice differs from 4 classes / 6 subgroups"
    elif key == "equi-collapse":
        if data["ok"] is not True or data["validation"]["ok"] is not True \
                or len(data["steps"]) != 3 * 8 or \
                data["final_fact"] != "F(S^0) = 0":
            return "D4 certificate is not a valid 24-step derivation"
    elif key == "equi-validate":
        if data["ok"] != "True" or data["checked_steps"] != "24":
            return "stored D4 certificate rejected"
    return None


def check(inputs: Inputs, outputs: dict) -> list:
    errors = []
    for key, _, _ in README:
        out = outputs.get((key,))
        if out is None:
            continue
        try:
            data = json.loads(out.stdout) if key == "equi-collapse" else \
                parse_text(out.stdout)
            problem = _check_one(key, data)
        except (KeyError, TypeError, ValueError, IndexError,
                AttributeError) as exc:
            problem = f"malformed output ({type(exc).__name__}: {exc})"
        if problem:
            errors.append(f"[cli] {key}: {problem}")
    return errors
