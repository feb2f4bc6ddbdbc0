"""Print the sha256 of every output file of the CLI's commands on the bundled configs.

Runs each command (forward, locate-one, oracle-check, locate-multi,
sweep) on each config in configs/, in this process and with the
package in this checkout's src/, each into its own directory under a
temporary one.  Prints one line per run and output file,

    command config exit_code file sha256

sorted; a run that writes no file (a config error, say) prints one line
with "-" for the file and its digest.  The runs write relative output
directories, so manifest.json records the same config in any checkout.
A change keeps every output byte for byte, with the same exit codes,
when the lines of both checkouts are equal:

    python tools/output_digests.py > new.txt
    (cd ../parent && python tools/output_digests.py) > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fracloc import cli  # noqa: E402

COMMANDS = ["forward", "locate-one", "oracle-check", "locate-multi", "sweep"]
CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))


def digest_lines(commands, configs, work_dir):
    """The sorted lines of each command run on each config, written under work_dir."""
    lines = []
    start = os.getcwd()
    os.chdir(work_dir)
    try:
        for command in commands:
            for config in configs:
                out = f"{command}-{config}"
                args = [command, "--config", str(ROOT / "configs" / f"{config}.json"), "--out", out]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(args)
                files = sorted(os.listdir(out)) if os.path.isdir(out) else []
                for name in files:
                    digest = hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
                    lines.append(f"{command} {config} {code} {name} {digest}")
                if not files:
                    lines.append(f"{command} {config} {code} - -")
    finally:
        os.chdir(start)
    return sorted(lines)


def main():
    with tempfile.TemporaryDirectory() as work_dir:
        for line in digest_lines(COMMANDS, CONFIGS, work_dir):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
