"""Boot, probe and stop one ICDB server subprocess for the benchmark.

Each server runs in its own process group, so the fleet workers it spawns
are reaped with it even if the server itself has to be killed.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.net.client import RemoteClient

HERE = Path(__file__).resolve().parent
TRACED_SERVER = HERE / "traced_server.py"

_BANNER = re.compile(r"icdb server listening on ([\d.]+):(\d+)")

#: Seconds a server may take to print its listening banner.
BOOT_TIMEOUT = 60.0
#: Socket timeout of the load connection: a wedged server fails the run
#: instead of hanging it.
CLIENT_TIMEOUT = 60.0


class ServerProcess:
    """One ``repro.net.server`` subprocess and the connection to it."""

    def __init__(
        self,
        args: List[str],
        env: dict,
        log_path: Path,
        trace_out: Optional[Path] = None,
    ):
        self.args = args
        self.env = env
        self.log_path = log_path
        self.trace_out = trace_out
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[RemoteClient] = None
        self.boot_s = 0.0

    def start(self) -> "ServerProcess":
        """Spawn, wait for the banner, connect and ping; times all of it."""
        if self.trace_out is not None:
            command = [sys.executable, str(TRACED_SERVER), "--trace-out", str(self.trace_out)]
        else:
            command = [sys.executable, "-m", "repro.net.server"]
        command += ["--port", "0"] + self.args
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=log,
                env=self.env,
                start_new_session=True,
            )
        host, port = self._await_banner()
        self.client = RemoteClient.connect(
            host, port, client="e2e-bench", timeout=CLIENT_TIMEOUT
        )
        self.client.ping()
        self.boot_s = time.perf_counter() - started
        return self

    def _await_banner(self):
        """Read stdout (unbuffered: several lines may arrive in one chunk)
        until the listening banner names the bound port."""
        assert self.process is not None and self.process.stdout is not None
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + BOOT_TIMEOUT
        output = b""
        while time.monotonic() < deadline:
            match = _BANNER.search(output.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            output += chunk
        raise RuntimeError(
            f"server did not start (exit {self.process.poll()}); stdout: {output!r}; "
            f"see {self.log_path}"
        )

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), fleet workers excluded."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 20.0) -> int:
        """Graceful stop (SIGINT); kill the whole group if it lingers."""
        if self.client is not None:
            self.client.close()
            self.client = None
        process = self.process
        if process is None:
            return 0
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            code = process.wait(timeout)
        except subprocess.TimeoutExpired:
            code = None
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if code is None:
            code = process.wait()
        if process.stdout is not None:
            process.stdout.close()
        return code
