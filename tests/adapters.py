"""Tiny external-segmenter scripts used to exercise the process adapter."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# copies a fixed mask file to the output slot, ignoring image and click
COPY_MASK = """
import shutil, sys
# args: image x y z output source
shutil.copyfile(sys.argv[6], sys.argv[5])
"""

# writes 64 MB to stdout, then copies a fixed mask file to the output slot
LOUD_COPY_MASK = """
import shutil, sys
# args: image x y z output source
chunk = b"x" * (1 << 20)
for _ in range(64):
    sys.stdout.buffer.write(chunk)
sys.stdout.flush()
shutil.copyfile(sys.argv[6], sys.argv[5])
"""

# always exits nonzero
ALWAYS_FAIL = """
import sys
sys.stderr.write("synthetic failure\\n")
sys.exit(3)
"""

# exits nonzero and names its input VOI's path on stderr
ECHO_IMAGE_AND_FAIL = """
import sys
sys.stderr.write("cannot segment %s\\n" % sys.argv[1])
sys.exit(3)
"""

# exits 0 without writing a mask
WRITES_NO_MASK = """
import sys
"""

# writes a mask file that is not NIfTI
NOT_NIFTI_MASK = """
import sys
with open(sys.argv[5], "wb") as f:
    f.write(b"not a mask")
"""

# writes an all-zero mask with the input's dims
EMPTY_MASK = """
import sys
import numpy as np
from ulsforge import Volume3D, VolumeKind, read_volume, write_volume
voi = read_volume(sys.argv[1])
out = np.zeros(voi.dims, dtype=np.uint8)
write_volume(Volume3D(out, spacing=voi.spacing, kind=VolumeKind.BINARY_MASK), sys.argv[5])
"""

# copies its input VOI file aside, then writes an all-zero mask
COPY_IMAGE_ASIDE = """
import shutil, sys
import numpy as np
from ulsforge import Volume3D, VolumeKind, read_volume, write_volume
# args: image x y z output copy
shutil.copyfile(sys.argv[1], sys.argv[6])
voi = read_volume(sys.argv[1])
out = np.zeros(voi.dims, dtype=np.uint8)
write_volume(Volume3D(out, spacing=voi.spacing, kind=VolumeKind.BINARY_MASK), sys.argv[5])
"""

# writes a mask with wrong dims
WRONG_DIMS = """
import sys
import numpy as np
from ulsforge import Volume3D, VolumeKind, write_volume
out = np.zeros((4, 4, 4), dtype=np.uint8)
write_volume(Volume3D(out, kind=VolumeKind.BINARY_MASK), sys.argv[5])
"""

# writes values outside {0, 1}
BAD_VALUES = """
import sys
import numpy as np
from ulsforge import Volume3D, read_volume, write_volume
voi = read_volume(sys.argv[1])
out = np.full(voi.dims, 2, dtype=np.uint8)
write_volume(Volume3D(out, spacing=voi.spacing), sys.argv[5])
"""

# segments the single voxel at the click point
CLICK_DOT = """
import sys
import numpy as np
from ulsforge import Volume3D, VolumeKind, read_volume, write_volume
voi = read_volume(sys.argv[1])
x, y, z = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
out = np.zeros(voi.dims, dtype=np.uint8)
out[x, y, z] = 1
write_volume(Volume3D(out, spacing=voi.spacing, kind=VolumeKind.BINARY_MASK), sys.argv[5])
"""

SLEEPER = """
import sys, time
time.sleep(30)
"""

# forks a sleeping worker, records its pid, then hangs
FORKS_SLEEPER = """
import subprocess, sys, time
# args: image x y z output pidfile
worker = subprocess.Popen(["sleep", "30"])
with open(sys.argv[6], "w") as f:
    f.write(str(worker.pid))
time.sleep(30)
"""


def write_adapter(tmp_path: Path, body: str, name: str = "adapter.py") -> str:
    """The command template of a script running ``body`` with this checkout's ulsforge."""
    script = tmp_path / name
    script.write_text("import sys; sys.path.insert(0, %r)\n" % str(SRC) + textwrap.dedent(body).lstrip())
    return "%s %s {image} {x} {y} {z} {output}" % (sys.executable, script)
