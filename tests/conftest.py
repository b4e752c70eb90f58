from hypothesis import settings

# a longer search, 1000 examples per property test, for three selections:
# the writer's equality with the compact json.dumps(data, sort_keys=True),
# pytest tests/test_serialize.py -k json_dumps --hypothesis-profile=long
# the cover reader's round trip and fault messages,
# pytest tests/test_serialize.py -k "reader_property or reader_rejects" --hypothesis-profile=long
# and the count table, and the one judge the property check and the
# cell-table a-strong check share, against their reference loops, on
# one-byte and wider tables, with 0/1 byte targets or any other, a
# cover circuit's forms against their dicts, and the lookup judge
# against the plain loop over the sorted union of supports,
# pytest tests/test_reference_paths.py -k "counts or cover_coefficients or cell_table or table_judge or part_form or check_matches_reference" --hypothesis-profile=long
settings.register_profile("long", max_examples=1000, deadline=None)
