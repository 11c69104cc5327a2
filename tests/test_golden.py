"""Golden lock on the command line: one SHA-256 of stdout per command, with
its exit code.  Temporary paths are masked, so the digests depend only on
what the commands print.  Regenerate a digest only for a deliberate change
of output:

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from vogeluniq.cli import main
from vogeluniq.configs import find_coloring, enumerate_n3, sketch_from_q
from vogeluniq.qsearch import PRIMED_LINES, builtin_q33, builtin_q_prop4

_FAMILY_PARAMS = (("sl", "5"), ("so", "7"), ("sp", "3/2"), ("exc", "-2/3"))

COMMANDS = (
    *(("eval", "--builtin", "adjoint", "--algebra", f, f"--param={q}") for f, q in _FAMILY_PARAMS),
    ("--json", "eval", "--builtin", "x2k", "--k", "1", "--n", "1", "--algebra", "so",
     "--param", "9", "--limit"),
    ("eval", "--builtin", "adjoint", "--algebra", "exc", "--param", "8", "--quantum",
     "--x", "0.5"),
    ("vogel-table",),
    ("vogel-table", "--family", "exc", "--param", "8"),
    *(("--json", "vogel-table", "--family", f, f"--param={q}") for f, q in _FAMILY_PARAMS),
    ("check-identity", "--builtin", "q33", "--params", "2,3,1,1", "--lines", "sl,so,exc,sp"),
    ("--json", "check-identity", "--builtin", "q33", "--params", "2,3,1,1",
     "--lines", "sl,so,exc,sp"),
    ("--json", "check-identity", "--builtin", "q33", "--params", "2,3,1,1", "--quantum",
     "--lines", "sl,so,exc,sp"),
    ("--json", "check-identity", "--builtin", "qprop4", "--params", "1,2,3,5",
     "--lines", "sl; 1:2:3 ;exc;sp"),
    ("check-identity", "--builtin", "adjoint", "--lines", "1:1:0;sl;2:1/2:-1"),
    ("--json", "check-identity", "--formula-json", "{tmp}/q33.json", "--lines", "sl,so,exc,sp"),
    ("check-identity", "--formula-json", "{tmp}/qprop4.json", "--lines", "sl,so,exc,sp"),
    ("check-identity", "--builtin", "q33", "--params", "2,3,1,1", "--plane"),
    ("--json", "check-identity", "--builtin", "x2k", "--k", "1", "--n", "0", "--plane"),
    ("--json", "search", "--k", "4", "--lines", "three", "--budget", "900"),
    ("--json", "search", "--k", "4", "--lines", "three"),
    ("--json", "search", "--k", "4", "--lines", "four"),
    ("--json", "search", "--k", "4", "--lines", "four", "--budget", "1000"),
    ("--json", "search", "--k", "3", "--lines", "four"),
    ("search", "--k", "3", "--no-dedup"),
    ("configs-enumerate", "--type", "9_3", "--color"),
    ("--json", "sketch", "--builtin", "q33", "--params", "2,3,1,1", "--out", "{tmp}/q33.svg"),
    ("--json", "sketch", "--builtin", "qprop4", "--params", "1,2,3,5",
     "--black", "sl,so,exc,sp"),
    ("sketch", "--builtin", "qprop4", "--params", "1,2,3,5", "--black", "sl;so;exc;6:-2:0"),
    ("extract-perms", "--table-json", "{tmp}/p4_table.json",
     "--coloring-json", "{tmp}/p4_coloring.json"),
    ("--json", "extract-perms", "--table-json", "{tmp}/p4_table.json",
     "--coloring-json", "{tmp}/p4_coloring.json"),
    ("--json", "extract-perms", "--table-json", "{tmp}/n9_table.json",
     "--coloring-json", "{tmp}/n9_coloring.json"),
    *(("reproduce", target) for target in ("P1-remark", "P2-k3", "P3", "P4")),
)

DIGESTS = {
    'eval --builtin adjoint --algebra sl --param=5': (0, '68ca3fba3b7e864770cb61aeb306d4bd4354b68ab4dd38450860c5d823e42a53'),
    'eval --builtin adjoint --algebra so --param=7': (0, '6e2ae11dad0616f66bbb2b6e6556f580bb987fd911d7132aa6bee2bfc7cc7b52'),
    'eval --builtin adjoint --algebra sp --param=3/2': (0, '06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7'),
    'eval --builtin adjoint --algebra exc --param=-2/3': (0, '9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25'),
    '--json eval --builtin x2k --k 1 --n 1 --algebra so --param 9 --limit': (0, 'bf5188aac2b9c10850644008b4648e6fa0c6b3abdb344d1558949274e71ea495'),
    'eval --builtin adjoint --algebra exc --param 8 --quantum --x 0.5': (0, '3e6693ff3c6afe145855ab8985f959fb8f93a3da2e731d3e26f9b7d4e3ec6d4c'),
    'vogel-table': (0, 'e18710e2b7c3bd0e9bfc8751e90f71f45ba10365058408de81a9a5ad0d5dc65d'),
    'vogel-table --family exc --param 8': (0, '6bdd7647e3147afdfe0bd6ce78fca0aba0d45fe9e7d27ec9aee07aa8dcd1a8a5'),
    '--json vogel-table --family sl --param=5': (0, '23555bc90e229b4255f5e64d8963f970a8df510adb6490684e01144467787e12'),
    '--json vogel-table --family so --param=7': (0, '4945b3d1eeccaa56828499113ebced81c89dd2c16700606df3f6db27e2d8fb71'),
    '--json vogel-table --family sp --param=3/2': (0, 'd4af0817d466ef4174e9067f9a4103dd941cc3c0c25ecaff5660cdd1bf8ca732'),
    '--json vogel-table --family exc --param=-2/3': (0, '85e75a081a4052f2493aca09969df606e6b8f2eb0a1736febe25ed060901a146'),
    'check-identity --builtin q33 --params 2,3,1,1 --lines sl,so,exc,sp': (1, '06988e95b6917ad2822bf929fbf6a86d5ed0101562d340f59136d64f9e7234ce'),
    '--json check-identity --builtin q33 --params 2,3,1,1 --lines sl,so,exc,sp': (1, '8ce1ee2f2ad2c26ea7d0e277205b4bde1a601e6b5318d081ef38bc7a838cd3da'),
    '--json check-identity --builtin q33 --params 2,3,1,1 --quantum --lines sl,so,exc,sp': (1, '3c8bf37966f841edf42e4c7b28b91cf14dc7302e10ec396d2ffc8a570ba731dc'),
    '--json check-identity --builtin qprop4 --params 1,2,3,5 --lines sl; 1:2:3 ;exc;sp': (1, 'e00d21613e75bc5bee7bc4006b890697640dab8acc1b93b729cfccaa9270e355'),
    'check-identity --builtin adjoint --lines 1:1:0;sl;2:1/2:-1': (1, 'd9883862971696964c1d6195eac9c880637be7895f4900f20f9bcd2d129466c2'),
    '--json check-identity --formula-json {tmp}/q33.json --lines sl,so,exc,sp': (1, '8ce1ee2f2ad2c26ea7d0e277205b4bde1a601e6b5318d081ef38bc7a838cd3da'),
    'check-identity --formula-json {tmp}/qprop4.json --lines sl,so,exc,sp': (0, '611446feca4d08d36fa5d1f5a9f66d3fabb1b6ffc5a2dd76bb2b7949c1dc43e7'),
    'check-identity --builtin q33 --params 2,3,1,1 --plane': (1, 'ec17a60a297875b6622413390a712544b562eb0c1aa2812e89a9034f56a30f31'),
    '--json check-identity --builtin x2k --k 1 --n 0 --plane': (1, 'af805566492ac2bbfe21cbbf094dbc10f9aaabaf888f320391ae47d963223ef8'),
    '--json search --k 4 --lines three --budget 900': (0, '993d467602c6f35c61eb2615481b3682762c8c55d9897754a24d694fb7ee927b'),
    '--json search --k 4 --lines three': (0, '5d77087121cf5dfa14a2545202423dce3c7a69850d05b46f59246f956b828a23'),
    '--json search --k 4 --lines four': (0, 'fd4228d61d1a5f891f6315a7c5d89694494dc4f2aa9481e1ae16bc522ecc73f1'),
    '--json search --k 4 --lines four --budget 1000': (1, 'b59a2e3a4e1ec46a963df615f9f8593104ad77615efd73e04c2480ab9e3eadad'),
    '--json search --k 3 --lines four': (1, 'cc085e1b788aa83febec65c04cb6a16f833933e95a72d0236baf06e43fcd3134'),
    'search --k 3 --no-dedup': (1, '5e84cc80880067b50115344ad3cb6cf4ed749c9904ac0f2f92dfaac4139f1220'),
    'configs-enumerate --type 9_3 --color': (0, '0e55b26f17daecd3ec94810b7331ba694525de3596f15d6ada06457eb4134ab3'),
    '--json sketch --builtin q33 --params 2,3,1,1 --out {tmp}/q33.svg': (0, 'd7c24eb508e697102abe9facb34e12893170afe2fce23d8924a6749a683540f0'),
    '--json sketch --builtin qprop4 --params 1,2,3,5 --black sl,so,exc,sp': (0, 'be0e3c05f681b9f2435a02ea840ab254f9243b47012cecd58e938121e5417f8a'),
    'sketch --builtin qprop4 --params 1,2,3,5 --black sl;so;exc;6:-2:0': (0, 'e1cd8449e75de838cb34ace9f0387fb9b785297d706357e173eac0c521ec133f'),
    'extract-perms --table-json {tmp}/p4_table.json --coloring-json {tmp}/p4_coloring.json': (0, '54ba6174bcc0b70cf2dae61e057957490f0f881c1b9c14780534a5b65aecf73b'),
    '--json extract-perms --table-json {tmp}/p4_table.json --coloring-json {tmp}/p4_coloring.json': (0, '3dd23853d47f5914b18595164c58c4f13a4900d45c22749415975319d6d8ce83'),
    '--json extract-perms --table-json {tmp}/n9_table.json --coloring-json {tmp}/n9_coloring.json': (0, '6eac448ba2bb14180a53f2759e679ecab6612bf97eaccec0c7f4e8ce068563b1'),
    'reproduce P1-remark': (0, '3d389f071d02a8dce6e96fff3dde9ee633a17b434599aefba80fb9ec54984453'),
    'reproduce P2-k3': (0, 'b2dee4f331942ee7fc9d97bfc0d0f7532c250b3ccf58fe532f4d64aee87f1848'),
    'reproduce P3': (0, 'b013d21cd3b4eb6d55525ed8dbbec4e12d7913a3bdee290a8e2cc9672b670e9c'),
    'reproduce P4': (0, '8884437749b37dd9e719ba22447a98d4fbeb4720ce11b8efb172fbc46f80fa8a'),
}


def _write_inputs(tmp: Path) -> None:
    files = {
        "q33.json": builtin_q33(2, 3, 1, 1).to_json(),
        "qprop4.json": builtin_q_prop4(1, 2, 3, 5, quantum=True).to_json(),
    }
    sketch = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
    files["p4_table.json"] = sketch.table.to_json()
    files["p4_coloring.json"] = sketch.coloring.to_json()
    colorable = next(t for t in enumerate_n3(9) if find_coloring(t) is not None)
    files["n9_table.json"] = colorable.to_json()
    files["n9_coloring.json"] = find_coloring(colorable).to_json()
    for name, body in files.items():
        (tmp / name).write_text(json.dumps(body))


def _run(argv: tuple, tmp: Path) -> tuple[int, str]:
    """(exit code, SHA-256 of stdout with `tmp` masked) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--threads", "1", *(arg.replace("{tmp}", str(tmp)) for arg in argv)])
    text = out.getvalue().replace(str(tmp), "{tmp}")
    return code, hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    _write_inputs(tmp)
    return tmp


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_pinned(argv, inputs):
    assert _run(argv, inputs) == DIGESTS[" ".join(argv)]


def print_digests() -> None:
    """Print the DIGESTS table for the current code."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_inputs(tmp)
        for argv in COMMANDS:
            print(f"    {' '.join(argv)!r}: {_run(argv, tmp)!r},")
