//! Known-bad fixture for H2 at zero hops: the `.to_vec()` on line 9,
//! the `format!` on line 10, and the `Vec::new()` on line 11 must fire;
//! the identical `.to_vec()` on line 18, outside the fence, must not.

fn hot(xs: &[u64], out: &mut Vec<u64>) -> String {
    // lint:hot-path
    out.clear();
    out.extend_from_slice(xs);
    let copy = xs.to_vec();
    let label = format!("{}", copy.len());
    let scratch: Vec<u64> = Vec::new();
    drop(scratch);
    // lint:hot-path-end
    label
}

fn cold(xs: &[u64]) -> Vec<u64> {
    xs.to_vec()
}
