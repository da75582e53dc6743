"""Runs the cli-cold children from a small process.

A child's peak resident memory (``ru_maxrss``) includes the memory of the
process it was forked from, so children forked by the workload process would
all report at least that process's size.  This helper stays small: it reads
one JSON command line per line on stdin, runs it with stdin and stdout on
/dev/null, waits for it and answers one JSON line
``{"code": exit code, "maxrss_kb": peak resident memory}``.  It exits when
stdin closes.
"""

import json
import os
import sys


def main():
    for line in sys.stdin:
        cmd = json.loads(line)
        pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        ])
        _, status, usage = os.wait4(pid, 0)
        print(json.dumps({"code": os.waitstatus_to_exitcode(status),
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
