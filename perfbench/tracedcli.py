"""A cold CLI process with spans; the traced twin of ``python -m sympspec.cli``.

``python perfbench/tracedcli.py <span-file> <cli args...>`` imports the CLI,
installs the tracer, runs ``cli.run`` on the arguments, writes the spans to
``<span-file>`` and exits with the CLI's exit code.
"""

import sys

import sympspec.cli as cli
from tracing import Tracer

tracer = Tracer()
tracer.install()
try:
    code = cli.run(sys.argv[2:])
finally:
    tracer.uninstall()
    tracer.write(sys.argv[1])
sys.exit(code)
