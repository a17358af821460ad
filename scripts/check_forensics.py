#!/usr/bin/env python3
"""Validate a fault-forensics artifact directory (bench `--forensics DIR`
or `sfi_forensics`), so CI catches a malformed or self-inconsistent
artifact before a human reads the vulnerability tables:

  1. records.bin has the pinned header (magic "SFIFRNS1", 30-byte
     records) and its payload size matches the declared record count;
  2. records are sorted by (point_id, trial) — the drain order that
     makes the stream byte-identical across worker thread counts — and
     cycles are non-decreasing within a trial;
  3. every record's detector fate is in the pinned vocabulary (0 none,
     1 razor-detected, 2 razor-escaped, 3 cwc-detected, 4 cwc-escaped)
     and in its point's family: a "razor(...)" model stamps only 0/1/2,
     a "cwc<k>(...)" model only 0/3/4, a bare model only 0;
  4. per-point record counts reconcile with the `injections` totals in
     forensics.json, and the stream total matches `record_count`;
  5. the outcome taxonomy adds up per point, in forensics.json AND in
     forensics_points.csv: trials == sum(outcome classes),
     hang == trials - finished, sdc == finished - correct,
     masked + latent_corrupt + detected == correct, and a Detected
     outcome requires razor detections (and vice versa a point with no
     razor detections must classify none).

Usage: check_forensics.py FORENSICS_DIR
Exit code 0 on success, 1 with a diagnostic on the first violation.
"""

import csv
import json
import os
import re
import struct
import sys

MAGIC = b"SFIFRNS1"
RECORD_BYTES = 30
OUTCOME_CLASSES = ("masked", "latent_corrupt", "sdc", "hang", "detected")
RAZOR_FATES = (0, 1, 2, 3, 4)  # none / razor det+esc / cwc det+esc


def family_fates(model):
    """The fates a point's model label allows (its detector family)."""
    if model.startswith("razor("):
        return {0, 1, 2}
    if re.match(r"cwc[0-9]+\(", model):
        return {0, 3, 4}
    return {0}


def fail(message):
    print(f"check_forensics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_records(path):
    """Returns the list of (point_id, trial, cycle, razor) tuples."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    if len(blob) < 16:
        fail(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:8] != MAGIC:
        fail(f"{path}: bad magic {blob[:8]!r}")
    record_size, count = struct.unpack_from("<II", blob, 8)
    if record_size != RECORD_BYTES:
        fail(f"{path}: record size {record_size}, expected {RECORD_BYTES}")
    if len(blob) != 16 + count * RECORD_BYTES:
        fail(f"{path}: payload is {len(blob) - 16} bytes, header declares "
             f"{count} x {RECORD_BYTES}")
    records = []
    for i in range(count):
        trial, point_id, cycle, _pc, _window = struct.unpack_from(
            "<IIQIH", blob, 16 + i * RECORD_BYTES)
        razor = blob[16 + i * RECORD_BYTES + 28]
        records.append((point_id, trial, cycle, razor))
    return records


def check_record_stream(records, path):
    prev_point, prev_trial, prev_cycle = -1, -1, -1
    per_point = {}
    fates = {}
    for index, (point_id, trial, cycle, razor) in enumerate(records):
        where = f"{path}: record #{index}"
        if razor not in RAZOR_FATES:
            fail(f"{where}: unknown razor fate {razor}")
        if point_id < prev_point:
            fail(f"{where}: point_id {point_id} after {prev_point} "
                 f"(stream not drained in point order)")
        if point_id == prev_point:
            if trial < prev_trial:
                fail(f"{where}: trial {trial} after {prev_trial} within "
                     f"point {point_id} (stream not drained in trial order)")
            if trial == prev_trial and cycle < prev_cycle:
                fail(f"{where}: cycle {cycle} after {prev_cycle} within "
                     f"trial {trial} of point {point_id}")
        else:
            prev_trial, prev_cycle = -1, -1
        prev_point, prev_trial, prev_cycle = point_id, trial, cycle
        per_point[point_id] = per_point.get(point_id, 0) + 1
        fates.setdefault(point_id, set()).add(razor)
    return per_point, fates


def check_taxonomy(label, trials, finished, correct, outcomes,
                   razor_detected, razor_escaped):
    if sum(outcomes.values()) != trials:
        fail(f"{label}: outcome classes sum to {sum(outcomes.values())}, "
             f"trials is {trials}")
    if outcomes["hang"] != trials - finished:
        fail(f"{label}: hang {outcomes['hang']} != trials - finished "
             f"({trials} - {finished})")
    if outcomes["sdc"] != finished - correct:
        fail(f"{label}: sdc {outcomes['sdc']} != finished - correct "
             f"({finished} - {correct})")
    survived = outcomes["masked"] + outcomes["latent_corrupt"] + \
        outcomes["detected"]
    if survived != correct:
        fail(f"{label}: masked + latent_corrupt + detected = {survived}, "
             f"correct is {correct}")
    if outcomes["detected"] > 0 and razor_detected == 0:
        fail(f"{label}: {outcomes['detected']} Detected trials but zero "
             f"razor detections")
    if razor_detected > 0 and outcomes["detected"] == 0 and \
            razor_escaped == 0 and correct == trials:
        # Detected only loses to Hang/SDC in the precedence order. With
        # no escapes and every trial surviving, the trials that carried
        # the detections finished correctly, so at least one must
        # classify Detected.
        fail(f"{label}: {razor_detected} razor detections, no escapes, "
             f"all {trials} trials correct — yet no trial classified "
             f"Detected")


def load_points_csv(path):
    """Returns {point_id: row-dict} from forensics_points.csv."""
    rows = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                fail(f"{path}: empty file")
            for number, row in enumerate(reader, start=2):
                if None in row or any(cell is None for cell in row.values()):
                    fail(f"{path}:{number}: cell count disagrees with "
                         f"the header")
                rows[int(row["point_id"])] = row
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    return rows


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    directory = sys.argv[1]

    records_path = os.path.join(directory, "records.bin")
    records = read_records(records_path)
    per_point_records, per_point_fates = check_record_stream(records,
                                                             records_path)

    json_path = os.path.join(directory, "forensics.json")
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot parse {json_path}: {err}")
    if doc.get("schema") != "sfi-forensics":
        fail(f"{json_path}: unexpected schema {doc.get('schema')!r}")
    if doc.get("record_count") != len(records):
        fail(f"{json_path}: record_count {doc.get('record_count')}, "
             f"records.bin holds {len(records)}")

    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail(f"{json_path}: missing or empty points array")
    csv_rows = load_points_csv(os.path.join(directory,
                                            "forensics_points.csv"))
    if len(csv_rows) != len(points):
        fail(f"forensics_points.csv has {len(csv_rows)} points, "
             f"forensics.json has {len(points)}")

    total_trials = 0
    for point in points:
        pid = point["point_id"]
        label = f"{json_path}: point {pid} ({point.get('panel')})"
        outcomes = point["outcomes"]
        if sorted(outcomes) != sorted(OUTCOME_CLASSES):
            fail(f"{label}: outcome keys {sorted(outcomes)}")
        check_taxonomy(label, point["trials_sampled"], point["finished"],
                       point["correct"], outcomes, point["razor_detected"],
                       point["razor_escaped"])
        foreign = per_point_fates.get(pid, set()) - \
            family_fates(point["model"])
        if foreign:
            fail(f"{label}: model {point['model']!r} carries foreign "
                 f"detector fates {sorted(foreign)}")
        if per_point_records.get(pid, 0) != point["injections"]:
            fail(f"{label}: {per_point_records.get(pid, 0)} records in the "
                 f"stream, injections says {point['injections']}")
        total_trials += point["trials_sampled"]

        row = csv_rows.get(pid)
        if row is None:
            fail(f"forensics_points.csv: point {pid} missing")
        csv_label = f"forensics_points.csv: point {pid} ({row['panel']})"
        check_taxonomy(csv_label, int(row["trials"]), int(row["finished"]),
                       int(row["correct"]),
                       {cls: int(row[cls]) for cls in OUTCOME_CLASSES},
                       int(row["razor_detected"]),
                       int(row["razor_escaped"]))
        for cls in OUTCOME_CLASSES:
            if int(row[cls]) != outcomes[cls]:
                fail(f"{csv_label}: {cls} {row[cls]} disagrees with "
                     f"forensics.json {outcomes[cls]}")
        if int(row["injections"]) != point["injections"]:
            fail(f"{csv_label}: injections {row['injections']} disagrees "
                 f"with forensics.json {point['injections']}")

    if doc.get("trials") != total_trials:
        fail(f"{json_path}: trials {doc.get('trials')} != per-point sum "
             f"{total_trials}")

    print(f"check_forensics: OK: {len(records)} records across "
          f"{len(points)} point(s), {total_trials} trials, taxonomy "
          f"reconciles")


if __name__ == "__main__":
    main()
