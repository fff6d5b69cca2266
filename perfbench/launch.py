"""Start the HTTP server with the benchmark's timing wrappers installed.

    python perfbench/launch.py server --spans-out FILE -- --db gam.db --port N

The wrappers go in first, then ``repro.web.__main__.main`` runs with the
arguments after ``--``; when the server is interrupted the spans are
written to FILE.
"""

from __future__ import annotations

import sys

from common import import_program


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] != "server" or argv[1] != "--spans-out" or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, server_args = argv[2], argv[4:]
    import_program()
    import tracing

    recorder = tracing.install()
    from repro.web.__main__ import main as serve

    try:
        return serve(server_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
