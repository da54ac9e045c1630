//! Test code is not part of the lib target, so nothing here is reported.

pub fn double(v: u32) -> u32 {
    v * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::time::Instant;

    #[test]
    fn test_code_may_do_anything() {
        let started = Instant::now();
        let shared = Mutex::new(HashMap::from([(1, double(2))]));
        let v: Option<u32> = shared.lock().unwrap().get(&1).copied();
        assert_eq!(v.expect("present"), 4);
        println!("took {:?}", started.elapsed());
    }
}
